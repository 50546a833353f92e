"""Tolerance-based comparison of two metric JSON documents.

``repro sweep compare`` flattens every numeric leaf of two JSON files
into dotted paths (``rows.3.metrics.cycles``,
``result.metrics.job_ms_geomean.value``) and checks each shared path
against a per-metric relative tolerance.  This one primitive backs
both:

* the **CI perf gate** — a ``bench_pipeline/run.py`` workload report
  at the base commit vs the same workload's report at the change,
  with the ``BENCHMARK.json`` bounds as rules, and
* **sweep regression checks** — a fresh ``report.json`` vs a previous
  sweep's (or a committed baseline's).

Rules are ``GLOB=TOL[:DIRECTION]`` strings matched against the dotted
path (first match wins):

* ``TOL`` is a relative tolerance — ``0`` means exact, ``0.1`` allows
  10% drift relative to the old value;
* ``DIRECTION`` is ``both`` (default), ``up`` (only an *increase*
  beyond tolerance fails — for lower-is-better metrics like cycles or
  miss ratios) or ``down`` (only a *decrease* fails — for
  higher-is-better metrics like speedups).

A path present in the old document but matched and absent in the new
one is a failure (``missing``); paths only in the new document are
reported as ``added`` but do not fail.  ``CompareResult.ok`` is the
gate: callers exit nonzero when it is false.
"""

from __future__ import annotations

import fnmatch
import json
import math
from dataclasses import dataclass
from typing import List, Optional

#: rel-diff sentinel when the baseline value is zero and the new one
#: is not: any tolerance short of ``inf`` fails, which is what an
#: exact-zero baseline should mean.
_INF = math.inf


@dataclass(frozen=True)
class Rule:
    """One ``GLOB=TOL[:DIRECTION]`` tolerance rule."""

    pattern: str
    tolerance: float
    direction: str = "both"  # "both" | "up" | "down"


def parse_rule(text):
    """Parse a CLI rule string into a :class:`Rule`."""
    if "=" not in text:
        raise ValueError(
            "rule %r must look like GLOB=TOL or GLOB=TOL:up|down" % (text,)
        )
    pattern, _, value = text.partition("=")
    direction = "both"
    if ":" in value:
        value, _, direction = value.partition(":")
    if direction not in ("both", "up", "down"):
        raise ValueError(
            "rule %r direction must be 'up', 'down' or 'both'" % (text,)
        )
    try:
        tolerance = float(value)
    except ValueError:
        raise ValueError(
            "rule %r tolerance %r is not a number" % (text, value)
        ) from None
    if tolerance < 0:
        raise ValueError("rule %r tolerance is negative" % (text,))
    return Rule(pattern=pattern, tolerance=tolerance, direction=direction)


def flatten(value, prefix=""):
    """``{dotted.path: number}`` over every numeric leaf of ``value``.

    Booleans are not numbers here; list indices become path segments.
    """
    out = {}
    if isinstance(value, dict):
        for key in value:
            path = "%s.%s" % (prefix, key) if prefix else str(key)
            out.update(flatten(value[key], path))
    elif isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            path = "%s.%d" % (prefix, index) if prefix else str(index)
            out.update(flatten(item, path))
    elif isinstance(value, bool):
        pass
    elif isinstance(value, (int, float)):
        if prefix:
            out[prefix] = value
    return out


@dataclass(frozen=True)
class Delta:
    """The comparison of one dotted path."""

    path: str
    status: str  # "ok" | "regression" | "missing" | "added"
    old: Optional[float] = None
    new: Optional[float] = None
    rel: Optional[float] = None
    tolerance: Optional[float] = None
    direction: Optional[str] = None

    def to_json(self):
        out = {"path": self.path, "status": self.status}
        for name in ("old", "new", "rel", "tolerance", "direction"):
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        return out

    def format(self):
        if self.status == "missing":
            return "MISSING %s (baseline %r)" % (self.path, self.old)
        if self.status == "added":
            return "added   %s = %r" % (self.path, self.new)
        rel = "inf" if self.rel == _INF else "%+.1f%%" % (100 * self.rel)
        line = "%s %s: %r -> %r (%s, tolerance %g%s)" % (
            "FAIL   " if self.status == "regression" else "ok     ",
            self.path,
            self.old,
            self.new,
            rel,
            self.tolerance,
            "" if self.direction == "both" else " " + self.direction,
        )
        return line


class CompareResult:
    """All deltas of one comparison, with the pass/fail verdict."""

    def __init__(self, deltas):
        self.deltas: List[Delta] = list(deltas)

    def by_status(self, status):
        return [d for d in self.deltas if d.status == status]

    @property
    def regressions(self):
        return self.by_status("regression")

    @property
    def missing(self):
        return self.by_status("missing")

    @property
    def ok(self):
        return not self.regressions and not self.missing

    def summary(self):
        return {
            "ok": self.ok,
            "compared": len(self.deltas),
            "regressions": len(self.regressions),
            "missing": len(self.missing),
            "added": len(self.by_status("added")),
        }

    def to_json(self):
        return {
            "summary": self.summary(),
            "deltas": [d.to_json() for d in self.deltas],
        }

    def format(self, verbose=False):
        lines = []
        for delta in self.deltas:
            if verbose or delta.status in ("regression", "missing"):
                lines.append(delta.format())
        summary = self.summary()
        lines.append(
            "%s: %d value(s) compared, %d regression(s), %d missing, "
            "%d added"
            % (
                "PASS" if self.ok else "FAIL",
                summary["compared"],
                summary["regressions"],
                summary["missing"],
                summary["added"],
            )
        )
        return "\n".join(lines)


def _matches(path, patterns):
    return any(fnmatch.fnmatchcase(path, p) for p in patterns)


def _rule_for(path, rules, default_tolerance):
    for rule in rules:
        if fnmatch.fnmatchcase(path, rule.pattern):
            return rule
    return Rule(pattern="*", tolerance=default_tolerance)


def _rel_diff(old, new):
    if old == new:
        return 0.0
    if old == 0:
        return _INF if new > 0 else -_INF
    return (new - old) / abs(old)


def compare(old, new, rules=(), default_tolerance=0.0, only=(), ignore=()):
    """Compare two JSON-like documents; returns a :class:`CompareResult`.

    ``only``/``ignore`` are path globs filtering which baseline paths
    participate at all (``only`` empty means "everything").
    """
    old_flat = flatten(old)
    new_flat = flatten(new)
    rules = list(rules)

    def selected(path):
        if only and not _matches(path, only):
            return False
        return not _matches(path, ignore)

    deltas = []
    for path in sorted(old_flat):
        if not selected(path):
            continue
        old_value = old_flat[path]
        if path not in new_flat:
            deltas.append(Delta(path=path, status="missing", old=old_value))
            continue
        new_value = new_flat[path]
        rule = _rule_for(path, rules, default_tolerance)
        rel = _rel_diff(old_value, new_value)
        if rule.direction == "up":
            failed = rel > rule.tolerance
        elif rule.direction == "down":
            failed = rel < -rule.tolerance
        else:
            failed = abs(rel) > rule.tolerance
        deltas.append(
            Delta(
                path=path,
                status="regression" if failed else "ok",
                old=old_value,
                new=new_value,
                rel=rel,
                tolerance=rule.tolerance,
                direction=rule.direction,
            )
        )
    for path in sorted(set(new_flat) - set(old_flat)):
        if selected(path):
            deltas.append(Delta(path=path, status="added", new=new_flat[path]))
    return CompareResult(deltas)


def compare_files(
    old_path,
    new_path,
    rules=(),
    default_tolerance=0.0,
    only=(),
    ignore=(),
):
    """:func:`compare` over two JSON files."""
    with open(old_path) as fh:
        old = json.load(fh)
    with open(new_path) as fh:
        new = json.load(fh)
    return compare(
        old,
        new,
        rules=rules,
        default_tolerance=default_tolerance,
        only=only,
        ignore=ignore,
    )


__all__ = [
    "CompareResult",
    "Delta",
    "Rule",
    "compare",
    "compare_files",
    "flatten",
    "parse_rule",
]
