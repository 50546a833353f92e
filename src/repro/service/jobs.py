"""Job model for the analysis service: requests, records, content keys.

A **job request** names one analysis of one kernel set — the PTX (or a
registered workload that provides both PTX and inputs), the input
``scale``/``seed``, the emulator engine, simulator knobs and which
analysis stages to run.  Its :meth:`~JobRequest.key` is a SHA-256 over
the canonical request fields *plus the tool versions that shape
results* (exactly the trick the sweep engine's point keys use): two
requests with the same key are guaranteed to produce byte-identical
result payloads, so results are content-addressed in the artifact
store and an idempotent resubmission can be served from storage
without re-emulating anything.

A **job record** is the queue's durable view of one submission:
status, tenant, priority, attempts, error context and the result key.
Records serialize to JSON (with an artifact self-checksum) so the
queue survives a process death and recovers from the store.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

from ..emulator.machine import ENGINES
from ..sim.config import KNOB_CHOICES

#: result/record schema version (bumped on incompatible layout changes).
JOB_SCHEMA_VERSION = 1

#: legal job states, in lifecycle order.
STATUS_QUEUED = "queued"
STATUS_RUNNING = "running"
STATUS_DONE = "done"
STATUS_FAILED = "failed"
STATUSES = (STATUS_QUEUED, STATUS_RUNNING, STATUS_DONE, STATUS_FAILED)

#: states that count against a tenant's quota.
OUTSTANDING = (STATUS_QUEUED, STATUS_RUNNING)

#: race-detector modes a request may ask for.
RACE_MODES = ("interval", "predictive")


#: simulator knobs accepted in ``JobRequest.knobs`` — deliberately the
#: same surface (names and defaults) as the ``repro simulate`` CLI, so
#: the service's timing numbers are value-identical to the CLI path.
KNOB_DEFAULTS = {
    "sms": 4,
    "partitions": 2,
    "l1_kb": 2,
    "l2_kb": 64,
    "scheduler": "lrr",
    "prefetcher": "none",
    "cta_policy": "round_robin",
    "top": 8,
}

#: the string-valued knobs' choices, read from the config's own table.
_KNOB_CHOICES = {
    "scheduler": KNOB_CHOICES["warp_scheduler"],
    "prefetcher": KNOB_CHOICES["prefetcher"],
    "cta_policy": KNOB_CHOICES["cta_policy"],
}


class JobError(ValueError):
    """A request that can never run (unknown app, bad knob, PTX that
    does not match its named workload) — an HTTP 400, not a 500."""


def _versions():
    from ..emulator.machine import EMULATOR_VERSION
    from ..emulator.serialize import FORMAT_VERSION

    return {"emulator": EMULATOR_VERSION, "trace_format": FORMAT_VERSION,
            "job_schema": JOB_SCHEMA_VERSION}


@dataclass(frozen=True)
class JobRequest:
    """One analysis request (semantic fields only — tenant and priority
    are routing concerns and live on the :class:`JobRecord`)."""

    app: Optional[str] = None
    ptx: Optional[str] = None
    scale: float = 0.25
    seed: int = 7
    engine: Optional[str] = None
    simulate: bool = True
    races: Optional[str] = None
    advise: bool = False
    knobs: Tuple[Tuple[str, object], ...] = ()

    # -- construction -----------------------------------------------------

    @classmethod
    def from_json(cls, body):
        """Build and validate a request from a (HTTP) JSON body."""
        if not isinstance(body, dict):
            raise JobError("request body must be a JSON object")
        known = {"app", "ptx", "scale", "seed", "engine", "simulate",
                 "races", "advise", "knobs"}
        unknown = sorted(set(body) - known - {"tenant", "priority"})
        if unknown:
            raise JobError("unknown request field(s): %s"
                           % ", ".join(unknown))
        knobs = body.get("knobs") or {}
        if not isinstance(knobs, dict):
            raise JobError("knobs must be a JSON object")
        request = cls(
            app=body.get("app"),
            ptx=body.get("ptx"),
            scale=body.get("scale", 0.25),
            seed=body.get("seed", 7),
            engine=body.get("engine"),
            simulate=body.get("simulate", True),
            races=body.get("races"),
            advise=body.get("advise", False),
            knobs=tuple(sorted(knobs.items())),
        )
        request.validate()
        return request

    def validate(self):
        """Raise :class:`JobError` on a structurally bad request."""
        if not self.app and not self.ptx:
            raise JobError("request needs an 'app' name and/or "
                           "'ptx' source")
        if self.app is not None:
            from ..workloads import workload_names

            if self.app not in workload_names(include_extended=True):
                raise JobError("unknown app %r" % self.app)
        # bool is an int subclass: ``true`` would pass as 1 under a
        # different content key
        if (not isinstance(self.scale, (int, float))
                or isinstance(self.scale, bool)
                or not 0 < self.scale < math.inf):
            raise JobError("scale must be a positive finite number")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise JobError("seed must be an integer")
        for name in ("simulate", "advise"):
            if not isinstance(getattr(self, name), bool):
                raise JobError("%s must be true or false" % name)
        if self.engine is not None and self.engine not in ENGINES:
            raise JobError("unknown engine %r (choices: %s)"
                           % (self.engine, ", ".join(ENGINES)))
        if self.races is not None and self.races not in RACE_MODES:
            raise JobError("unknown races mode %r (choices: %s)"
                           % (self.races, ", ".join(RACE_MODES)))
        for name, value in self.knobs:
            if name not in KNOB_DEFAULTS:
                raise JobError("unknown knob %r (choices: %s)"
                               % (name, ", ".join(sorted(KNOB_DEFAULTS))))
            choices = _KNOB_CHOICES.get(name)
            if choices is not None and value not in choices:
                raise JobError("bad knob %s=%r (choices: %s)"
                               % (name, value, ", ".join(choices)))
            if choices is None and (not isinstance(value, int)
                                    or isinstance(value, bool)
                                    or value <= 0):
                raise JobError("knob %r must be a positive integer" % name)
        if not self.app and (self.simulate or self.races or self.advise):
            # raw PTX carries no inputs or launch geometry: only the
            # static stages can run
            raise JobError(
                "a ptx-only request is static analysis only: set "
                "simulate=false and omit races/advise, or name an "
                "'app' that provides inputs")
        return self

    # -- canonical form / content key -------------------------------------

    def knob(self, name):
        """The effective value of one simulator knob."""
        for key, value in self.knobs:
            if key == name:
                return value
        return KNOB_DEFAULTS[name]

    def canonical(self):
        """The deterministic dict the content key (and the result
        payload's ``request`` echo) is computed over."""
        return {
            "app": self.app,
            "ptx": self.ptx,
            "scale": self.scale,
            "seed": self.seed,
            "engine": self.engine,
            "simulate": self.simulate,
            "races": self.races,
            "advise": self.advise,
            "knobs": {k: v for k, v in self.knobs},
        }

    def key(self):
        """Content address of this request's result.

        Includes the emulator/trace-format versions, so bumping either
        changes every key and stale results are recomputed rather than
        silently served (the sweep-point staleness rule).
        """
        payload = {"request": self.canonical(), "versions": _versions()}
        blob = json.dumps(payload, sort_keys=True,
                          separators=(",", ":")).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()

    def to_json(self):
        return self.canonical()


@dataclass
class JobRecord:
    """The queue's durable view of one submitted job."""

    id: str
    key: str
    tenant: str
    priority: int
    status: str
    request: JobRequest
    attempts: int = 0
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    error: Optional[str] = None
    error_context: Optional[Dict[str, object]] = None
    result_key: Optional[str] = None
    #: "hit" when the result came straight from the artifact store
    #: (idempotent resubmission), "miss" when a worker computed it.
    result_cache: Optional[str] = None
    #: recovery bookkeeping: True when a restart found this job leased
    #: by a dead worker and re-queued it.
    recovered: bool = False

    @property
    def outstanding(self):
        return self.status in OUTSTANDING

    @property
    def wall_seconds(self):
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at

    def to_json(self, include_request=True):
        out = {
            "schema": JOB_SCHEMA_VERSION,
            "id": self.id,
            "key": self.key,
            "tenant": self.tenant,
            "priority": self.priority,
            "status": self.status,
            "attempts": self.attempts,
            "submitted_at": self.submitted_at,
        }
        for name in ("started_at", "finished_at", "error",
                     "error_context", "result_key", "result_cache"):
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        if self.recovered:
            out["recovered"] = True
        wall = self.wall_seconds
        if wall is not None:
            out["wall_seconds"] = wall
        if include_request:
            out["request"] = self.request.to_json()
        return out

    @classmethod
    def from_json(cls, payload):
        body = payload.get("request") or {}
        request = JobRequest.from_json(body)
        record = cls(
            id=payload["id"],
            key=payload["key"],
            tenant=payload.get("tenant", "default"),
            priority=int(payload.get("priority", 0)),
            status=payload["status"],
            request=request,
            attempts=int(payload.get("attempts", 0)),
            submitted_at=payload.get("submitted_at", 0.0),
            started_at=payload.get("started_at"),
            finished_at=payload.get("finished_at"),
            error=payload.get("error"),
            error_context=payload.get("error_context"),
            result_key=payload.get("result_key"),
            result_cache=payload.get("result_cache"),
            recovered=bool(payload.get("recovered", False)),
        )
        if record.status not in STATUSES:
            raise JobError("bad job status %r" % record.status)
        return record

    def copy(self, **changes):
        return replace(self, **changes)


__all__ = [
    "ENGINES",
    "JOB_SCHEMA_VERSION",
    "JobError",
    "JobRecord",
    "JobRequest",
    "KNOB_DEFAULTS",
    "OUTSTANDING",
    "RACE_MODES",
    "STATUSES",
    "STATUS_DONE",
    "STATUS_FAILED",
    "STATUS_QUEUED",
    "STATUS_RUNNING",
]
