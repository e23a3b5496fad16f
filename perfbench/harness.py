"""Jobs, the closed-loop runner, machine-speed calibration and the
end-to-end summary.

A workload is a list of rounds; a round is a fixed mix of jobs whose
kinds and size strata are the same in every round, so any whole number
of rounds has the workload's exact mix.  One client runs jobs back to
back in this process.  Each job's outputs are checked right after it
ends, outside its timed interval.

Calibration: on a shared machine the same code runs up to ~1.9x slower
for stretches of seconds to minutes, which moves whole runs.  A fixed
calibration loop is timed between jobs, and each job's wall time is
scaled by the loop's speed around it, giving "reference seconds": the
job's time on this machine when the loop takes ``PROBE_REF_S``.  The
loop is benchmark code, so a change to phylokit moves job times but not
the loop.  Raw wall times are reported alongside.
"""

from __future__ import annotations

import math
import statistics
from contextlib import nullcontext
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np

# the calibration loop's time at this machine's full speed; it only
# fixes the unit of the reference seconds
PROBE_REF_S = 0.002
_PROBE_ARRAY = np.arange(50_000, dtype=np.float64)


def probe() -> float:
    """Wall time of the calibration loop: interpreter work of the kind
    phylokit's loops do, plus a little bulk numpy."""
    t0 = perf_counter()
    table: dict[int, int] = {}
    acc = 0
    for i in range(12_000):
        table[i & 127] = table.get(i & 127, 0) + i
        acc += i * 3 % 7
    for _ in range(8):
        acc += int((_PROBE_ARRAY * 1.0001).sum()) & 1
    return perf_counter() - t0


def speed(readings: list[float]) -> float:
    """Slowdown factor from calibration readings taken around one piece
    of work; wall time divided by it gives reference seconds."""
    return statistics.median(readings) / PROBE_REF_S


class ReferenceMismatch(Exception):
    """A set-up reference check failed; the run reports no metrics."""


def stratified(lo: float, hi: float, s: int, strata: int) -> float:
    """The middle of stratum ``s`` of ``strata`` equal steps of [lo, hi]
    on a log scale.  Sizes are fixed and only contents come from the
    seed, so one run's mix of job costs is the same as the next's."""
    u = (s + 0.5) / strata
    return math.exp(math.log(lo) + (math.log(hi) - math.log(lo)) * u)


@dataclass
class Verdict:
    ok: bool
    reason: str = ""
    # a failure of the kind the workload is known to show at this
    # version ("underflow", "recursion"); any other failure is unexpected
    known: str | None = None


@dataclass
class Job:
    kind: str
    module: str  # the phylokit module the job exercises first
    run: Callable  # run(api) -> output; the only timed part
    check: Callable  # check(output) -> Verdict, for a job that did not raise
    tie: bool = False
    deep: bool = False
    underflow: bool = False  # measured by the check of a probability job


@dataclass
class JobRecord:
    job_id: int
    kind: str
    module: str
    wall_s: float
    speed: float  # slowdown factor around the job
    ref_s: float  # wall_s / speed, in reference seconds
    ok: bool
    raised: bool
    known: str | None
    reason: str
    tie: bool
    deep: bool
    underflow: bool

    def as_dict(self) -> dict:
        return dict(self.__dict__)


def run_phase(rounds, api, seconds, min_jobs, max_rounds=None, tracer=None):
    """Run whole rounds until ``seconds`` of job wall time have passed and
    at least ``min_jobs`` jobs ran, or exactly ``max_rounds`` rounds.
    Returns (job records, rounds run)."""
    runs = []
    readings = [probe()]  # readings[j] precedes job j, readings[j + 1] follows it
    timed = 0.0
    r = 0
    while True:
        if max_rounds is not None:
            if r >= max_rounds:
                break
        elif timed >= seconds and len(runs) >= min_jobs:
            break
        for job in rounds[r % len(rounds)]:
            error = None
            out = None
            with tracer.job(len(runs), job.kind) if tracer else nullcontext():
                t0 = perf_counter()
                try:
                    out = job.run(api)
                except Exception as exc:  # a job failure is data, not a crash
                    error = exc
                dt = perf_counter() - t0
            readings.append(probe())
            timed += dt
            if error is None:
                verdict = job.check(out)
            else:
                verdict = Verdict(False, f"raised {type(error).__name__}: {error}")
            runs.append((job, dt, verdict, error is not None))
        r += 1
    records = []
    for job_id, (job, dt, verdict, raised) in enumerate(runs):
        # three readings before the job and three after it
        factor = speed(readings[max(0, job_id - 2):job_id + 4])
        records.append(
            JobRecord(
                job_id=job_id,
                kind=job.kind,
                module=job.module,
                wall_s=dt,
                speed=factor,
                ref_s=dt / factor,
                ok=verdict.ok,
                raised=raised,
                known=None if verdict.ok else verdict.known,
                reason=verdict.reason,
                tie=job.tie,
                deep=job.deep,
                underflow=job.underflow,
            )
        )
    return records, r


def quantile(values, q):
    """Linear-interpolation quantile of a sample (+inf allowed)."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    frac = pos - lo
    if frac == 0.0 or xs[lo] == xs[hi]:
        return xs[lo]
    if math.isinf(xs[hi]):
        return math.inf
    return xs[lo] + (xs[hi] - xs[lo]) * frac


def finite(x: float) -> float:
    """JSON has no infinity; the largest double stands in for it."""
    return x if math.isfinite(x) else 1.7976931348623157e308


def summarize(records: list[JobRecord]) -> dict:
    """End-to-end figures of one phase, in reference seconds and (with
    the ``_wall`` suffix) in wall seconds.  A failed job's latency is
    +inf and it does not count towards jobs per second."""
    passed = sum(r.ok for r in records)
    n = len(records)
    out = {"attempted": n, "failed": n - passed}
    for suffix, key in (("", "ref_s"), ("_wall", "wall_s")):
        total = sum(getattr(r, key) for r in records)
        times = [getattr(r, key) if r.ok else math.inf for r in records]
        out[f"timed_s{suffix}"] = total
        out[f"jobs_per_s{suffix}"] = passed / total if total > 0 else 0.0
        out[f"job_p50_s{suffix}"] = finite(quantile(times, 0.5))
        out[f"job_p90_s{suffix}"] = finite(quantile(times, 0.9))
    kinds: dict[str, dict] = {}
    for r in records:
        k = kinds.setdefault(r.kind, {"attempted": 0, "failed": 0, "passed_ref_s": 0.0,
                                      "known": {}, "unexpected": []})
        k["attempted"] += 1
        if r.ok:
            k["passed_ref_s"] += r.ref_s
        else:
            k["failed"] += 1
            if r.known:
                k["known"][r.known] = k["known"].get(r.known, 0) + 1
            else:
                k["unexpected"].append(r.reason)
    out.update(
        unexpected=sum(len(k["unexpected"]) for k in kinds.values()),
        passed_ratio=passed / n,
        failed_ratio=(n - passed) / n,
        kinds=kinds,
        shares={
            "tie_jobs": sum(r.tie for r in records) / n,
            "underflow_jobs": sum(r.underflow for r in records) / n,
            "deep_jobs": sum(r.deep for r in records) / n,
        },
    )
    return out
