"""Declarative sweep specifications and their deterministic expansion.

A :class:`SweepSpec` is a plain JSON document (or dict) describing an
experiment grid: a set of applications x input scales x simulator
knobs.  ``expand`` turns it into a canonically ordered list of
:class:`SweepPoint` objects; ``point_key`` gives each point a
content-address (like the trace cache: a SHA-256 over everything that
determines its numbers, including the emulator/trace-format versions),
which is what makes sweeps resumable and shardable — a point's result
file is named by its key, so any process can tell whether the point is
already done.

Spec format::

    {
      "name": "cache-size",
      "description": "free text",
      "apps": ["2mm", "bfs"],
      "scales": [0.5],
      "base_config": "bench",          // "bench" | "tesla" | "tiny"
      "seed": 7,
      "fixed": {"l2_size": 65536},     // applied to every point
      "axes": {"l1_size": [1024, 2048, 4096, 8192]},
      "metrics": ["l1_miss_ratio", "cycles"]   // optional subset
    }

Axis/fixed names are :func:`repro.sim.config.knob_names` entries,
validated with :func:`repro.sim.config.check_knobs` — the machine
organization included: ``cta_policy`` (``round_robin`` or
``clustered``) and ``l2_clusters`` (``0`` keeps the global L2; ``n > 0``
simulates the paper's Section X.C semi-global L2 with SM clusters of
size ``n``) are :class:`~repro.sim.config.GPUConfig` fields like any
other.

Sharding: ``shard(points, k, n)`` deterministically assigns every n-th
point (round-robin) to shard ``k`` of ``n``, so the shard sets are
pairwise disjoint and their union is exactly the full grid — the
property CI's matrix fan-out and the resumability tests rely on.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..sim.config import TESLA_C2050, TINY, check_knobs, knob_names
from ..workloads.registry import WORKLOADS

#: bumped on incompatible changes to point files or report layout.
SWEEP_SCHEMA_VERSION = 1

#: named base configurations a spec can start from.
BASE_CONFIGS = ("bench", "tesla", "tiny")


class SpecError(ValueError):
    """A sweep spec failed validation."""


def resolve_base_config(name):
    """Map a spec's ``base_config`` string to a GPUConfig instance."""
    if name == "bench":
        # imported lazily: experiments.runner pulls in the whole
        # pipeline, which spec parsing should not need
        from ..experiments.runner import BENCH_CONFIG

        return BENCH_CONFIG
    if name == "tesla":
        return TESLA_C2050
    if name == "tiny":
        return TINY
    raise SpecError(
        "unknown base_config %r (choices: %s)"
        % (name, ", ".join(BASE_CONFIGS))
    )


def _canonical(value):
    """Canonical compact JSON used inside hashes."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class SweepPoint:
    """One cell of the expanded grid: an app, a scale, knob settings."""

    app: str
    scale: float
    knobs: Tuple[Tuple[str, object], ...]

    @property
    def params(self):
        """All coordinates as one flat dict (``app``/``scale`` included)."""
        out = {"app": self.app, "scale": self.scale}
        out.update(dict(self.knobs))
        return out

    def label(self):
        parts = ["app=%s" % self.app, "scale=%r" % (self.scale,)]
        parts += ["%s=%r" % kv for kv in self.knobs]
        return " ".join(parts)


@dataclass
class SweepSpec:
    """A validated sweep description (see the module docstring)."""

    name: str
    apps: List[str]
    scales: List[float]
    axes: Dict[str, List[object]] = field(default_factory=dict)
    fixed: Dict[str, object] = field(default_factory=dict)
    base_config: str = "bench"
    seed: int = 7
    description: str = ""
    metrics: Optional[List[str]] = None

    # -- validation -------------------------------------------------------

    def validate(self):
        from .metrics import METRIC_NAMES

        if not self.name or not isinstance(self.name, str):
            raise SpecError("spec needs a non-empty string name")
        if not self.apps:
            raise SpecError("spec %r sweeps no apps" % self.name)
        for app in self.apps:
            if app not in WORKLOADS:
                raise SpecError(
                    "unknown app %r (choices: %s)"
                    % (app, ", ".join(sorted(WORKLOADS)))
                )
        if len(set(self.apps)) != len(self.apps):
            raise SpecError("duplicate apps in spec %r" % self.name)
        if not self.scales:
            raise SpecError("spec %r sweeps no scales" % self.name)
        for scale in self.scales:
            if isinstance(scale, bool) or not isinstance(scale, (int, float)):
                raise SpecError("scale %r is not a number" % (scale,))
            if scale <= 0:
                raise SpecError("scale %r is not positive" % (scale,))
        if len(set(self.scales)) != len(self.scales):
            raise SpecError("duplicate scales in spec %r" % self.name)
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise SpecError("seed must be an int, got %r" % (self.seed,))
        resolve_base_config(self.base_config)
        overlap = set(self.axes) & set(self.fixed)
        if overlap:
            raise SpecError(
                "knob(s) both swept and fixed: %s" % ", ".join(sorted(overlap))
            )
        try:
            check_knobs(self.fixed)
        except ValueError as exc:
            raise SpecError("fixed: %s" % exc) from None
        for axis, values in self.axes.items():
            if not isinstance(values, (list, tuple)) or not values:
                raise SpecError("axis %r needs a non-empty value list" % axis)
            if len(set(map(repr, values))) != len(values):
                raise SpecError("axis %r has duplicate values" % axis)
            for value in values:
                try:
                    check_knobs({axis: value})
                except ValueError as exc:
                    raise SpecError("axis %s" % exc) from None
        if self.metrics is not None:
            if not self.metrics:
                raise SpecError("metrics, when given, must be non-empty")
            for metric in self.metrics:
                if metric not in METRIC_NAMES:
                    raise SpecError(
                        "unknown metric %r (choices: %s)"
                        % (metric, ", ".join(METRIC_NAMES))
                    )
        return self

    # -- (de)serialization ------------------------------------------------

    def to_json(self):
        out = {
            "name": self.name,
            "description": self.description,
            "apps": list(self.apps),
            "scales": list(self.scales),
            "axes": {k: list(v) for k, v in self.axes.items()},
            "fixed": dict(self.fixed),
            "base_config": self.base_config,
            "seed": self.seed,
        }
        if self.metrics is not None:
            out["metrics"] = list(self.metrics)
        return out

    @classmethod
    def from_json(cls, data):
        if not isinstance(data, dict):
            raise SpecError("spec must be a JSON object")
        known = {
            "name",
            "description",
            "apps",
            "scales",
            "scale",
            "axes",
            "fixed",
            "base_config",
            "seed",
            "metrics",
        }
        unknown = set(data) - known
        if unknown:
            raise SpecError(
                "unknown spec field(s): %s" % ", ".join(sorted(unknown))
            )
        if "scale" in data and "scales" in data:
            raise SpecError("give either 'scale' or 'scales', not both")
        scales = data.get("scales")
        if scales is None:
            scales = [data["scale"]] if "scale" in data else []
        return cls(
            name=data.get("name", ""),
            description=data.get("description", ""),
            apps=list(data.get("apps", [])),
            scales=[float(s) for s in scales],
            axes={k: list(v) for k, v in (data.get("axes") or {}).items()},
            fixed=dict(data.get("fixed") or {}),
            base_config=data.get("base_config", "bench"),
            seed=data.get("seed", 7),
            metrics=(
                list(data["metrics"])
                if data.get("metrics") is not None
                else None
            ),
        ).validate()

    @classmethod
    def load(cls, path):
        """Read and validate a spec JSON file."""
        with open(path) as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise SpecError("%s: %s" % (path, exc)) from None
        return cls.from_json(data)


# -- expansion, sharding, keying -----------------------------------------


def expand(spec):
    """The full grid in canonical order.

    Order is: apps as listed, then scales as listed, then the cartesian
    product of the axes — axis order as declared in the spec, values in
    their listed order, last axis varying fastest.  Every caller
    (engine, report, sharding) iterates this same order, which is what
    makes shard assignment and report bytes deterministic.
    """
    axis_names = list(spec.axes)
    combos = [()]
    for axis in axis_names:
        combos = [c + (v,) for c in combos for v in spec.axes[axis]]
    points = []
    for app in spec.apps:
        for scale in spec.scales:
            for combo in combos:
                points.append(
                    SweepPoint(
                        app=app,
                        scale=float(scale),
                        knobs=tuple(zip(axis_names, combo)),
                    )
                )
    return points


def shard(points, index, count):
    """Points assigned to shard ``index`` (1-based) of ``count``.

    Round-robin assignment: shard k takes points k-1, k-1+n, ... —
    so shards are balanced to within one point, pairwise disjoint, and
    their union is the full list.
    """
    if count < 1:
        raise SpecError("shard count must be >= 1, got %r" % (count,))
    if not 1 <= index <= count:
        raise SpecError(
            "shard index must be in 1..%d, got %r" % (count, index)
        )
    return list(points[index - 1 :: count])


def parse_shard(text):
    """Parse a CLI ``K/N`` shard selector into ``(k, n)``."""
    try:
        left, right = str(text).split("/", 1)
        index, count = int(left), int(right)
    except ValueError:
        raise SpecError(
            "shard must look like K/N (e.g. 2/4), got %r" % (text,)
        ) from None
    if count < 1 or not 1 <= index <= count:
        raise SpecError("shard %r out of range" % (text,))
    return index, count


def _versions():
    from ..emulator.machine import EMULATOR_VERSION
    from ..emulator.serialize import FORMAT_VERSION

    return {
        "emulator": EMULATOR_VERSION,
        "trace_format": FORMAT_VERSION,
        "sweep_schema": SWEEP_SCHEMA_VERSION,
    }


def versions():
    """The version facts stamped into point files and reports."""
    return _versions()


def point_key(spec, point):
    """Content-address of one point's result.

    Covers everything that determines the point's metrics — base
    config, fixed overrides, seed, app, scale, the point's own knob
    values, and the emulator/trace-format/schema versions — and
    deliberately nothing cosmetic (spec name, description, metric
    selection, axis declaration order), so renaming a sweep or
    reordering its axes does not invalidate completed points.
    """
    h = hashlib.sha256()
    parts = [
        "repro-sweep-point",
        _canonical(_versions()),
        "base=%s" % spec.base_config,
        "fixed=%s" % _canonical(spec.fixed),
        "seed=%d" % spec.seed,
        "app=%s" % point.app,
        "scale=%r" % (point.scale,),
        "knobs=%s" % _canonical(dict(point.knobs)),
    ]
    for part in parts:
        h.update(part.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


def spec_hash(spec):
    """Hash binding an output directory to the spec that filled it.

    Unlike :func:`point_key` this covers the *whole* spec (including
    name and axis layout): a directory holds one sweep's results, and
    mixing grids in one directory would make reports ambiguous.
    """
    h = hashlib.sha256()
    h.update(b"repro-sweep-spec\0")
    h.update(_canonical(spec.to_json()).encode("utf-8"))
    h.update(b"\0")
    h.update(_canonical(_versions()).encode("utf-8"))
    return h.hexdigest()


__all__ = [
    "BASE_CONFIGS",
    "SWEEP_SCHEMA_VERSION",
    "SpecError",
    "SweepPoint",
    "SweepSpec",
    "expand",
    "knob_names",
    "parse_shard",
    "point_key",
    "resolve_base_config",
    "shard",
    "spec_hash",
    "versions",
]
