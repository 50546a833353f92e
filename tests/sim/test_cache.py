"""Unit tests for the reservation-aware cache model."""

from hypothesis import given, settings, strategies as st

from repro.sim.cache import Cache, Outcome
from repro.sim.mshr import MSHRTable


def make_cache(sets=2, assoc=2, mshr=4, merge=2):
    return Cache(num_sets=sets, assoc=assoc, line_size=128,
                 mshr_entries=mshr, mshr_merge=merge)


def addr(set_index, tag, sets=2):
    """An address mapping to a given set with a given tag."""
    return (tag * sets + set_index) * 128


class TestBasicOutcomes:
    def test_cold_miss_then_hit_after_fill(self):
        cache = make_cache()
        a = addr(0, 1)
        assert cache.lookup(a) is Outcome.MISS
        cache.commit_miss(a, "req0")
        # while in flight the line is reserved: further requests merge
        assert cache.lookup(a) is Outcome.HIT_RESERVED
        waiters = cache.fill(a)
        assert waiters == ["req0"]
        assert cache.lookup(a) is Outcome.HIT

    def test_hit_reserved_merges_request(self):
        cache = make_cache()
        a = addr(0, 1)
        cache.commit_miss(a, "r0")
        cache.commit_hit_reserved(a, "r1")
        assert cache.fill(a) == ["r0", "r1"]

    def test_merge_capacity_becomes_mshr_fail(self):
        cache = make_cache(merge=2)
        a = addr(0, 1)
        cache.commit_miss(a, "r0")
        cache.commit_hit_reserved(a, "r1")
        assert cache.lookup(a) is Outcome.RSRV_FAIL_MSHR

    def test_mshr_exhaustion(self):
        cache = make_cache(sets=4, assoc=2, mshr=2)
        cache.commit_miss(addr(0, 1, 4), "a")
        cache.commit_miss(addr(1, 1, 4), "b")
        assert cache.lookup(addr(2, 1, 4)) is Outcome.RSRV_FAIL_MSHR

    def test_tag_exhaustion(self):
        cache = make_cache(sets=2, assoc=2, mshr=8)
        # fill both ways of set 0 with in-flight misses
        cache.commit_miss(addr(0, 1), "a")
        cache.commit_miss(addr(0, 2), "b")
        assert cache.lookup(addr(0, 3)) is Outcome.RSRV_FAIL_TAGS
        # the other set is unaffected
        assert cache.lookup(addr(1, 3)) is Outcome.MISS


class TestEviction:
    def test_lru_victim(self):
        cache = make_cache(sets=1, assoc=2)
        a, b, c = addr(0, 1, 1), addr(0, 2, 1), addr(0, 3, 1)
        cache.commit_miss(a, "ra")
        cache.fill(a)
        cache.commit_miss(b, "rb")
        cache.fill(b)
        cache.commit_hit(a)  # make a most-recently used
        cache.commit_miss(c, "rc")  # must evict b
        cache.fill(c)
        assert cache.lookup(a) is Outcome.HIT
        assert cache.lookup(b) is Outcome.MISS

    def test_reserved_lines_never_evicted(self):
        cache = make_cache(sets=1, assoc=2)
        a, b, c = addr(0, 1, 1), addr(0, 2, 1), addr(0, 3, 1)
        cache.commit_miss(a, "ra")   # reserved
        cache.commit_miss(b, "rb")   # reserved
        assert cache.lookup(c) is Outcome.RSRV_FAIL_TAGS
        cache.fill(a)
        # a is now valid -> evictable
        assert cache.lookup(c) is Outcome.MISS


class TestWrites:
    def test_write_evicts_valid_line(self):
        cache = make_cache()
        a = addr(0, 1)
        cache.commit_miss(a, "r")
        cache.fill(a)
        assert cache.contains_valid(a)
        cache.write_touch(a)
        assert not cache.contains_valid(a)
        assert cache.lookup(a) is Outcome.MISS

    def test_write_to_absent_line_is_noop(self):
        cache = make_cache()
        cache.write_touch(addr(0, 5))  # must not raise


class TestMaintenance:
    def test_reserved_count(self):
        cache = make_cache()
        assert cache.reserved_count() == 0
        cache.commit_miss(addr(0, 1), "r")
        assert cache.reserved_count() == 1

    def test_reset(self):
        cache = make_cache()
        a = addr(0, 1)
        cache.commit_miss(a, "r")
        cache.fill(a)
        cache.reset()
        assert cache.lookup(a) is Outcome.MISS
        assert cache.reserved_count() == 0

    def test_reset_clears_mshr_in_place(self):
        """reset() must clear the MSHR *in place*: rebinding a fresh
        MSHR would orphan any external reference (the memory pipeline
        holds one) and leave the old, still-populated table live."""
        cache = make_cache(sets=4, assoc=2, mshr=2)
        mshr = cache.mshr
        cache.commit_miss(addr(0, 1, sets=4), "r0")
        cache.commit_miss(addr(1, 1, sets=4), "r1")
        assert cache.lookup(addr(2, 1, sets=4)) is Outcome.RSRV_FAIL_MSHR
        cache.reset()
        assert cache.mshr is mshr
        # the table really drained: new misses allocate from scratch
        assert cache.lookup(addr(2, 1, sets=4)) is Outcome.MISS
        cache.commit_miss(addr(2, 1, sets=4), "r2")
        assert cache.fill(addr(2, 1, sets=4)) == ["r2"]
        # metrics keep flowing through the pre-reset reference: the
        # post-reset allocation lands in the same lifetime counters
        from repro.obs.metrics import MetricsRegistry
        reg = MetricsRegistry()
        mshr.publish_metrics(reg, level="l1")
        assert reg.get("sim.mshr.allocations").value(level="l1") == 3

    def test_fill_unknown_block_returns_empty(self):
        cache = make_cache()
        assert cache.fill(addr(0, 9)) == []

    def test_outcome_fail_flags(self):
        assert Outcome.RSRV_FAIL_TAGS.is_fail
        assert Outcome.RSRV_FAIL_MSHR.is_fail
        assert Outcome.RSRV_FAIL_ICNT.is_fail
        assert not Outcome.HIT.is_fail
        assert not Outcome.MISS.is_fail


class ScanCache:
    """The per-set linear scan the tag index replaced, as the reference:
    a line is ``[tag, state, last_use]``, state "I", "R" or "V"."""

    def __init__(self, sets, assoc, mshr, merge):
        self.num_sets = sets
        self.sets = [[[-1, "I", 0] for _ in range(assoc)]
                     for _ in range(sets)]
        self.mshr = MSHRTable(mshr, merge)
        self.tick = 0

    def _set(self, block):
        return self.sets[block // 128 % self.num_sets]

    def _find(self, block):
        for line in self._set(block):
            if line[0] == block // 128 and line[1] != "I":
                return line
        return None

    def _victim(self, block):
        best = None
        for line in self._set(block):
            if line[1] == "I":
                return line
            if line[1] == "V" and (best is None or line[2] < best[2]):
                best = line
        return best

    def lookup(self, block):
        line = self._find(block)
        if line is not None:
            if line[1] == "V":
                return Outcome.HIT
            if self.mshr.can_merge(block):
                return Outcome.HIT_RESERVED
            return Outcome.RSRV_FAIL_MSHR
        if self._victim(block) is None:
            return Outcome.RSRV_FAIL_TAGS
        if not self.mshr.can_allocate():
            return Outcome.RSRV_FAIL_MSHR
        return Outcome.MISS

    def commit_hit(self, block):
        self.tick += 1
        self._find(block)[2] = self.tick

    def commit_hit_reserved(self, block, request):
        self.mshr.merge(block, request)

    def commit_miss(self, block, request):
        self.tick += 1
        self._victim(block)[:] = [block // 128, "R", self.tick]
        self.mshr.allocate(block, request)

    def fill(self, block):
        line = self._find(block)
        if line is not None and line[1] == "R":
            self.tick += 1
            line[1:] = ["V", self.tick]
        return self.mshr.fill(block)

    def write_touch(self, block):
        line = self._find(block)
        if line is not None and line[1] == "V":
            line[:2] = [-1, "I"]

    def contains_valid(self, block):
        line = self._find(block)
        return line is not None and line[1] == "V"

    def reserved_count(self):
        return sum(line[1] == "R" for s in self.sets for line in s)

    def reset(self):
        self.__init__(self.num_sets, len(self.sets[0]),
                      self.mshr.num_entries, self.mshr.max_merge)


#: the commit each lookup outcome allows
COMMITS = {Outcome.HIT: "commit_hit",
           Outcome.HIT_RESERVED: "commit_hit_reserved",
           Outcome.MISS: "commit_miss"}

BLOCKS = [tag * 128 for tag in range(8)]


@settings(max_examples=300, deadline=None)
@given(sets=st.integers(1, 4), assoc=st.integers(1, 4),
       mshr=st.integers(1, 4), merge=st.integers(1, 3),
       ops=st.lists(st.tuples(
           st.sampled_from(("lookup", "commit_hit", "commit_hit_reserved",
                            "commit_miss", "fill", "write_touch", "reset")),
           st.sampled_from(BLOCKS)), min_size=20, max_size=80))
def test_tag_index_matches_a_linear_scan(sets, assoc, mshr, merge, ops):
    cache = Cache(num_sets=sets, assoc=assoc, line_size=128,
                  mshr_entries=mshr, mshr_merge=merge)
    ref = ScanCache(sets, assoc, mshr, merge)
    for step, (op, block) in enumerate(ops):
        if op == "reset":
            cache.reset()
            ref.reset()
        elif op == "fill":
            assert cache.fill(block) == ref.fill(block)
        elif op == "write_touch":
            cache.write_touch(block)
            ref.write_touch(block)
        else:
            outcome = cache.lookup(block)
            assert outcome is ref.lookup(block)
            # a commit only after the lookup outcome that allows it
            if COMMITS.get(outcome) == op:
                args = (block,) if op == "commit_hit" else (block, step)
                getattr(cache, op)(*args)
                getattr(ref, op)(*args)
        # every eviction, invalidation and reservation shows
        assert [(cache.contains_valid(b), cache.lookup(b)) for b in BLOCKS] \
            == [(ref.contains_valid(b), ref.lookup(b)) for b in BLOCKS]
        assert cache.reserved_count() == ref.reserved_count()
