"""Simulator configuration (the reproduction's Table II).

The defaults mirror the paper's GPGPU-Sim v3.2.2 / Tesla C2050 setup where a
parameter is reported (Table II): 14 SMs, 32-wide SIMT, 16 KB / 128 B-line /
4-way L1D with 64 MSHR entries, a unified 768 KB / 128 B-line / 8-way L2,
ROP latency 120 cycles, DRAM latency 100 cycles.  Parameters the paper does
not report (queue depths, interconnect latency, unit latencies) use values
taken from GPGPU-Sim's Fermi configuration files and are documented inline.

All latencies are in SM core cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

#: The memory-line granularity (bytes) shared by every layer that reasons
#: about spatial locality: the coalescer's transaction size, the L1/L2
#: line-size defaults below, the trace-level locality and heat-map
#: analyses, and the trace transforms in :mod:`repro.optim`.  128 B is
#: Fermi's global-memory transaction size and the paper's block size
#: (Sections VI, VIII); this constant is the single source of truth —
#: per-run overrides flow through :attr:`GPUConfig.l1_line_size` or the
#: explicit ``line_bytes``/``line_size``/``block_size`` parameters of the
#: consumers.
LINE_BYTES = 128

#: The legal values of every string-valued :class:`GPUConfig` field.
#: :meth:`GPUConfig.validate`, :func:`check_knobs` (and so sweep specs),
#: the service's knob validation, the ``repro simulate`` flags and the
#: CTA-scheduler factory all read this one table.
KNOB_CHOICES = {
    "warp_scheduler": ("lrr", "gto"),
    "prefetcher": ("none", "stride", "indirect_oracle"),
    "cta_policy": ("round_robin", "clustered"),
}


@dataclass(frozen=True)
class GPUConfig:
    """Every tunable of the timing model, with Tesla C2050-like defaults."""

    # -- SM organization (Table II / Section III) ---------------------------
    num_sms: int = 14
    warp_size: int = 32
    max_threads_per_sm: int = 1536
    max_ctas_per_sm: int = 8
    shared_mem_per_sm: int = 48 * 1024
    #: instructions the SM may issue per cycle (Fermi dual-issue).
    issue_width: int = 2
    #: warp scheduling policy: "lrr" (loose round-robin, the paper's
    #: baseline) or "gto" (greedy-then-oldest).
    warp_scheduler: str = "lrr"
    #: CTA-to-SM assignment: "round_robin" (the hardware baseline) or
    #: "clustered" (Section X.B: neighbouring CTAs share an SM).
    cta_policy: str = "round_robin"

    # -- functional-unit timing -----------------------------------------------
    #: SP initiation interval / result latency (GPGPU-Sim int/fp default).
    sp_initiation_interval: int = 1
    sp_latency: int = 8
    #: SFU executes transcendental ops at quarter throughput.
    sfu_initiation_interval: int = 4
    sfu_latency: int = 20
    #: control instructions (bra/bar/exit) occupy only the issue stage.
    ctrl_latency: int = 1

    # -- L1 data cache (Table II: 16KB, 128B line, 4-way, 64 MSHR) ----------
    l1_size: int = 16 * 1024
    l1_line_size: int = LINE_BYTES
    l1_assoc: int = 4
    l1_mshr_entries: int = 64
    #: max requests merged into one MSHR entry (GPGPU-Sim default 8).
    l1_mshr_merge: int = 8
    #: L1 hit latency (pipelined; GPGPU-Sim Fermi L1 ~ a few 10s of cycles).
    l1_hit_latency: int = 28
    #: shared-memory access latency (conflict-free).
    shared_latency: int = 24
    #: shared-memory banks (Fermi: 32 banks, 4-byte wide); an n-way bank
    #: conflict serializes into n port cycles.
    shared_banks: int = 32
    shared_bank_width: int = 4
    #: constant/parameter cache latency.
    const_latency: int = 8
    #: memory instructions the LD/ST unit can have queued.
    ldst_queue_size: int = 8
    #: L1 prefetcher: "none", "stride" (per-PC stride prediction, helps
    #: deterministic loads) or "indirect_oracle" (Section X.A: prefetches
    #: the upcoming non-deterministic load's blocks with a perfect
    #: indirect-address predictor — an upper bound on schemes like
    #: Lakshminarayana & Kim's spare-register-aware prefetching [16]).
    prefetcher: str = "none"
    #: trace ops to look ahead for the indirect-oracle prefetcher.
    prefetch_lookahead: int = 8
    #: pending-prefetch queue capacity per SM (oldest dropped).
    prefetch_queue_size: int = 16

    # -- interconnect -------------------------------------------------------------
    #: one-way zero-load latency of the SM <-> partition crossbar.
    icnt_latency: int = 12
    #: per-SM in-flight request budget; exhaustion is the paper's
    #: "reservation fail by interconnection".
    icnt_credits_per_sm: int = 16
    #: per-partition in-flight response budget.
    icnt_credits_per_partition: int = 16

    # -- L2 cache (Table II: unified 768KB, 128B line, 8-way, 32 MSHR) -------
    num_partitions: int = 6
    l2_size: int = 768 * 1024
    l2_line_size: int = LINE_BYTES
    l2_assoc: int = 8
    l2_mshr_entries: int = 32
    l2_mshr_merge: int = 8
    l2_hit_latency: int = 20
    #: raster-operations pipeline depth: minimum icnt->L2 latency (Table II).
    rop_latency: int = 120
    #: L2 organization: 0 is the global L2 every SM shares; n > 0 is
    #: Section X.C's semi-global L2, whose slices are private to clusters
    #: of n SMs, each cluster reaching its share of the partitions over a
    #: smaller crossbar (see :attr:`crossbar_latency`).
    l2_clusters: int = 0

    # -- DRAM (Table II: GDDR5, latency 100) -------------------------------------
    dram_latency: int = 100
    #: cycles of channel occupancy per 128 B burst (bandwidth model).
    dram_burst_interval: int = 4

    # ------------------------------------------------------------------ derived

    @property
    def l1_num_sets(self):
        return self.l1_size // (self.l1_line_size * self.l1_assoc)

    @property
    def l2_slice_size(self):
        return self.l2_size // self.num_partitions

    @property
    def l2_num_sets(self):
        return self.l2_slice_size // (self.l2_line_size * self.l2_assoc)

    @property
    def crossbar_latency(self):
        """One-way latency of the SM <-> partition crossbar as built.

        A cluster-local crossbar of the semi-global L2 is smaller than
        the global one; it is modelled at half of :attr:`icnt_latency`.
        """
        if self.l2_clusters:
            return max(1, self.icnt_latency // 2)
        return self.icnt_latency

    def partition_map(self):
        """The ``(sm_id, block_addr) -> partition`` function of this L2
        organization.

        The global L2 interleaves lines across all partitions,
        SM-independent; the semi-global L2 interleaves each cluster's
        requests over that cluster's own slices only.
        """
        line, parts = self.l1_line_size, self.num_partitions
        if not self.l2_clusters:
            return lambda sm_id, block: (block // line) % parts
        cluster = self.l2_clusters
        slices = parts // (self.num_sms // cluster)
        return lambda sm_id, block: (
            (sm_id // cluster) * slices + (block // line) % slices)

    @property
    def unloaded_miss_latency(self):
        """Zero-contention turnaround of an L1-missing load (one request).

        This is the "un-loaded memory system latency" bar of Figure 5:
        request crosses the interconnect, traverses the ROP pipe, misses in
        L2, pays DRAM latency + one burst, and the data returns.
        """
        return (self.crossbar_latency + self.rop_latency
                + self.l2_hit_latency + self.dram_latency
                + self.dram_burst_interval + self.crossbar_latency)

    @property
    def unloaded_l2_hit_latency(self):
        """Zero-contention turnaround of an L1 miss that hits in L2."""
        return (self.crossbar_latency + self.rop_latency
                + self.l2_hit_latency + self.crossbar_latency)

    def scaled(self, **overrides):
        """A copy with overrides — convenience for tests and ablations."""
        return replace(self, **overrides)

    def validate(self):
        if self.l1_size % (self.l1_line_size * self.l1_assoc):
            raise ValueError("L1 size must be a multiple of line*assoc")
        if self.l2_slice_size % (self.l2_line_size * self.l2_assoc):
            raise ValueError("L2 slice size must be a multiple of line*assoc")
        if self.num_sms < 1 or self.num_partitions < 1:
            raise ValueError("need at least one SM and one partition")
        for name in KNOB_CHOICES:
            _check_choice(name, getattr(self, name))
        if self.l2_clusters < 0:
            raise ValueError("l2_clusters must be >= 0")
        if self.l2_clusters:
            if self.num_sms % self.l2_clusters:
                raise ValueError("l2_clusters (%d) must divide num_sms (%d)"
                                 % (self.l2_clusters, self.num_sms))
            if self.num_partitions % (self.num_sms // self.l2_clusters):
                raise ValueError("num_partitions must be divisible by the "
                                 "number of L2 clusters")
        return self


def _check_choice(name, value):
    choices = KNOB_CHOICES[name]
    if value not in choices:
        raise ValueError("%s must be one of %s, got %r"
                         % (name, ", ".join(choices), value))


def knob_names():
    """Every sweepable :class:`GPUConfig` field name, declaration order.

    This is the authoritative knob enumeration consumed by the sweep
    engine (:mod:`repro.sweep`): a sweep axis or fixed override must
    name one of these fields.
    """
    return tuple(f.name for f in fields(GPUConfig))


def check_knobs(overrides):
    """Validate sweep/ablation overrides against :class:`GPUConfig`.

    Checks that every name is a real config field, that every value
    has the field's type (bools are rejected for int fields — JSON
    ``true`` silently coercing to ``1`` would be a confusing sweep
    axis), that no count is negative and that string fields take one
    of their :data:`KNOB_CHOICES`.  Returns the overrides as a plain
    dict; raises :class:`ValueError` with the offending name otherwise.
    Consistency between fields (set counts, divisibility) is still
    checked by :meth:`GPUConfig.validate` once a full config is
    assembled.
    """
    defaults = GPUConfig()
    valid = set(knob_names())
    checked = {}
    for name in sorted(overrides):
        value = overrides[name]
        if name not in valid:
            raise ValueError(
                "unknown sim-config knob %r (valid knobs: %s)"
                % (name, ", ".join(knob_names())))
        expected = type(getattr(defaults, name))
        if isinstance(value, bool) or not isinstance(value, expected):
            raise ValueError(
                "knob %r expects %s, got %r"
                % (name, expected.__name__, value))
        if expected is int and value < 0:
            raise ValueError("knob %r must be >= 0, got %r" % (name, value))
        if name in KNOB_CHOICES:
            _check_choice(name, value)
        checked[name] = value
    return checked


#: The paper's simulated configuration (Tesla C2050).
TESLA_C2050 = GPUConfig().validate()

#: A small configuration for fast unit tests.
TINY = GPUConfig(
    num_sms=2,
    max_threads_per_sm=512,
    max_ctas_per_sm=4,
    l1_size=2 * 1024,
    l1_mshr_entries=8,
    num_partitions=2,
    l2_size=32 * 1024,
    l2_mshr_entries=8,
    icnt_credits_per_sm=8,
).validate()
