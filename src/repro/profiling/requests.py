"""Request-count histograms: how many 128 B transactions a warp load
generates, per class.

Figure 6's underlying observation is that a deterministic load always
produces 1-2 requests while "the same non-deterministic load instruction
generates one to 32 memory requests per each warp during different
instances of its execution".  This module computes the full histogram
of requests-per-warp-load from traces (no timing model needed).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from ..emulator.columnar import _PC_SHIFT
from ..ptx.isa import Space
from ..sim.coalescer import _CLASS_LABELS, class_codes, table_degrees


@dataclass
class RequestHistogram:
    """Per-class histograms of requests per warp global load."""

    by_class: Dict[str, Counter] = field(
        default_factory=lambda: {"D": Counter(), "N": Counter(),
                                 "other": Counter()})

    def record(self, load_class, n_requests):
        label = load_class if load_class in ("D", "N") else "other"
        self.by_class[label][n_requests] += 1

    def total(self, load_class):
        return sum(self.by_class[load_class].values())

    def mean(self, load_class):
        hist = self.by_class[load_class]
        total = sum(hist.values())
        if not total:
            return 0.0
        return sum(n * c for n, c in hist.items()) / total

    def max(self, load_class):
        hist = self.by_class[load_class]
        return max(hist) if hist else 0

    def spread(self, load_class):
        """Number of distinct request counts observed for the class."""
        return len(self.by_class[load_class])

    def fraction_at_or_below(self, load_class, threshold):
        hist = self.by_class[load_class]
        total = sum(hist.values())
        if not total:
            return 1.0
        return sum(c for n, c in hist.items() if n <= threshold) / total


def request_histogram(app_trace, classifications=None, access_size=4,
                      line_size=128):
    """Build the per-class request histogram for an application trace."""
    hist = RequestHistogram()
    for launch in app_trace:
        pc_classes = {}
        if classifications is not None:
            result = classifications.get(launch.kernel_name)
            if result is not None:
                pc_classes = {ld.pc: str(ld.load_class) for ld in result}
        table = launch.memory_table(space=Space.GLOBAL, loads_only=True)
        if table is None:
            continue
        n_req, n_lanes = table_degrees(table, access_size,
                                       line_size=line_size)
        labels = class_codes(launch, pc_classes)[table["pc"] >> _PC_SHIFT]
        sel = n_lanes > 0
        for code, name in _CLASS_LABELS:
            counts = hist.by_class[name]
            values, tallies = np.unique(n_req[sel & (labels == code)],
                                        return_counts=True)
            for v, c in zip(values.tolist(), tallies.tolist()):
                counts[v] += c
    return hist
