"""Section X's suggested microarchitectural optimizations as runnable
ablations, in one transform table.

:data:`TRANSFORMS` names the four studies.  Machine organizations are
:class:`~repro.sim.config.GPUConfig` overrides: clustered CTA
scheduling is ``cta_policy="clustered"`` and semi-global L2 caches are
``l2_clusters=n``.  Trace transforms (sub-warp splitting and perfect
coalescing of non-deterministic loads) are per-launch rewrites handed
to :meth:`~repro.sim.gpu.GPU.run_application`.  :func:`configure` is
the one mapping from a name to ``(config, rewrite)``, and
:func:`simulate` runs an application under a named transform, or under
none for the baseline, returning its :class:`~repro.sim.stats.SimStats`.
"""

from functools import partial

from ..sim.gpu import GPU
from .coalesce_oracle import coalesced_launch
from .warp_split import split_launch, split_op

WARP_SPLIT = "warp_split"
COALESCE_ORACLE = "coalesce_oracle"
CTA_CLUSTERED = "cta_clustered"
SEMI_GLOBAL_L2 = "semi_global_l2"

#: every transform :func:`configure` knows, in table order.
TRANSFORMS = (WARP_SPLIT, COALESCE_ORACLE, CTA_CLUSTERED, SEMI_GLOBAL_L2)


def configure(transform, config, max_requests=4, cluster_size=2):
    """``(config, rewrite)`` that simulates ``transform`` on top of
    ``config``: a machine organization overrides the config, a trace
    transform adds a per-launch rewrite."""
    line = config.l1_line_size
    if transform == WARP_SPLIT:
        return config, partial(split_launch, max_requests=max_requests,
                               line_bytes=line)
    if transform == COALESCE_ORACLE:
        return config, partial(coalesced_launch, line_bytes=line)
    if transform == CTA_CLUSTERED:
        return config.scaled(cta_policy="clustered"), None
    if transform == SEMI_GLOBAL_L2:
        return config.scaled(l2_clusters=cluster_size), None
    raise ValueError("unknown transform %r" % (transform,))


def simulate(run, config, transform=None, max_requests=4, cluster_size=2):
    """Simulate an application run under ``transform`` (``None``: the
    baseline ``config`` as is) and return its ``SimStats``."""
    rewrite = None
    if transform is not None:
        config, rewrite = configure(transform, config, max_requests,
                                    cluster_size)
    return GPU(config).run_application(run.trace, run.classifications,
                                       rewrite=rewrite)


__all__ = [
    "WARP_SPLIT",
    "COALESCE_ORACLE",
    "CTA_CLUSTERED",
    "SEMI_GLOBAL_L2",
    "TRANSFORMS",
    "configure",
    "simulate",
    "coalesced_launch",
    "split_launch",
    "split_op",
]
