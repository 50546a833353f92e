"""CTA-to-SM assignment policies.

The paper (Section X.B) observes that GPUs assign CTAs to SMs in
round-robin order, which scatters neighbouring CTAs — exactly the CTAs
that share data blocks (Figure 12) — across different SMs and private L1
caches.  It suggests assigning *neighbouring* CTAs to the *same* SM
instead.  Both policies are implemented here; the ablation benchmark
compares them.
"""

from __future__ import annotations

from collections import deque
from typing import List

from .config import KNOB_CHOICES


class RoundRobinScheduler:
    """The baseline hardware policy: CTAs issued in id order, each to the
    next SM with a free slot (CTA0->SM0, CTA1->SM1, ...)."""

    def __init__(self, cta_ids, num_sms):
        self._queue = deque(cta_ids)
        self.num_sms = num_sms

    def next_for(self, sm_id):
        """Pop the CTA to run next on ``sm_id`` (or None when drained)."""
        if not self._queue:
            return None
        return self._queue.popleft()

    @property
    def remaining(self):
        return len(self._queue)


class ClusteredScheduler:
    """Section X.B's suggestion: neighbouring CTAs go to the same SM.

    CTA ids are dealt to per-SM queues in contiguous chunks of
    ``cluster`` (CTA0,1 -> SM0; CTA2,3 -> SM1; ...), so CTAs that share
    data blocks at small CTA distances hit the same private L1.  When an
    SM drains its own queue it steals from the longest remaining queue to
    avoid load imbalance.
    """

    def __init__(self, cta_ids, num_sms, cluster=2):
        self.num_sms = num_sms
        self.cluster = cluster
        self._queues: List[deque] = [deque() for _ in range(num_sms)]
        sm = 0
        for i, cta in enumerate(cta_ids):
            self._queues[sm].append(cta)
            if (i + 1) % cluster == 0:
                sm = (sm + 1) % num_sms

    def next_for(self, sm_id):
        if self._queues[sm_id]:
            return self._queues[sm_id].popleft()
        victim = max(self._queues, key=len)
        if victim:
            return victim.popleft()
        return None

    @property
    def remaining(self):
        return sum(len(q) for q in self._queues)


#: ``GPUConfig.cta_policy`` value -> policy class.
SCHEDULERS = dict(zip(KNOB_CHOICES["cta_policy"],
                      (RoundRobinScheduler, ClusteredScheduler)))


def make_scheduler(name, cta_ids, num_sms, **kwargs):
    """Instantiate a scheduler policy by name."""
    if name not in SCHEDULERS:
        raise ValueError("unknown CTA scheduler %r (choices: %s)"
                         % (name, ", ".join(KNOB_CHOICES["cta_policy"])))
    return SCHEDULERS[name](cta_ids, num_sms, **kwargs)
