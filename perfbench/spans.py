"""Tracing from outside the program: spans around phylokit's public
functions, recorded in memory and turned into per-module metrics.

The benchmark calls phylokit only through an ``Api`` object.  Untraced,
its attributes are phylokit's own functions.  Traced, each is wrapped in
a span, and the cross-module references that one phylokit module holds
to another (``hmm`` -> ``evaluate_chain``, ``run_pipeline`` -> its
stages) are replaced for the duration of the traced run.  Per-cell
internals are never wrapped.
"""

from __future__ import annotations

import json
import math
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from types import SimpleNamespace

from reference import quartet_rank


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    job: int | None
    start: float = 0.0
    end: float = 0.0
    error: str | None = None
    counts: dict = field(default_factory=dict)


class Tracer:
    """Parent-linked spans kept in memory; one root span per job."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._job: int | None = None

    def _open(self, name: str) -> Span:
        span = Span(
            id=len(self.spans),
            name=name,
            parent=self._stack[-1] if self._stack else None,
            job=self._job,
        )
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    @contextmanager
    def job(self, job_id: int, kind: str):
        self._job = job_id
        span = self._open(f"job.{kind}")
        span.start = perf_counter()
        try:
            yield
        finally:
            span.end = perf_counter()
            self._stack.pop()
            self._job = None

    def wrap(self, name: str, fn, count=None):
        """``fn`` wrapped in a span called ``name``; ``count(args,
        result)`` adds counters to the span after it closes."""

        def traced(*args, **kwargs):
            span = self._open(name)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.end = perf_counter()
                span.error = type(exc).__name__
                raise
            finally:
                self._stack.pop()
            span.end = perf_counter()
            if count is not None:
                span.counts = count(args, result)
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.__dict__) + "\n")


# ---------------------------------------------------------------------------
# counters taken at the span boundaries, from the call's inputs and result


def _cells(args, result):
    s1, s2 = args[-2], args[-1]
    return {"cells": (len(s1) + 1) * (len(s2) + 1)}


def _polygon(args, result):
    return {**_cells(args, result), "polygon_vertices": len(result.polygon.vertices)}


def _chain(args, result):
    spec = args[0]
    return {"chain_steps": spec.length * spec.states**2}


def _em(args, result):
    return {"em_iters": len(result[1])}


def _site_edges(args, result):
    tree, length = args[0], args[1]
    return {"site_edges": len(tree.edges()) * length}


def _pair_sites(args, result):
    alignment = args[0]
    n = len(alignment.taxa)
    return {"pair_sites": n * (n - 1) // 2 * alignment.width}


def _q_entries(n: int) -> int:
    # one (m x m) criterion matrix per agglomeration while m > 3
    return sum(m * m for m in range(4, n + 1))


def _quartets(args, result):
    delta = args[0]
    n = len(delta.taxa)
    if result.ok:
        return {"quartets": math.comb(n, 4)}
    order = sorted(delta.taxa)
    return {"quartets": quartet_rank(n, [order.index(t) for t in result.violation]) + 1}


def _traced(tracer: Tracer, name: str, fn, count):
    """``fn`` in a span; neighbor joining also counts the negative-length
    clamp warnings it raises."""
    if name != "treespace.neighbor_join":
        return tracer.wrap(name, fn, count)
    clamps = []

    def counted(delta):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            tree = fn(delta)
        clamps.append(sum("clamping negative branch length" in str(w.message) for w in caught))
        return tree

    def count_nj(args, result):
        return {"nj_q_entries": _q_entries(len(args[0].taxa)), "nj_clamps": clamps.pop()}

    return tracer.wrap(name, counted, count_nj)


# name on the Api -> (module, function, counter); the span is module.function
DIRECT = {
    "pair_probability": ("pairhmm", "pair_probability", _cells),
    "viterbi_alignment": ("pairhmm", "viterbi_alignment", _cells),
    "score_alignment_basic": ("pairhmm", "score_alignment_basic", _cells),
    "parametric_polygon": ("pairhmm", "parametric_polygon", _polygon),
    "viterbi_explanation": ("hmm", "viterbi_explanation", None),
    "log_forward": ("hmm", "log_forward", None),
    "baum_welch_train": ("hmm", "baum_welch_train", _em),
    "simulate_leaf_sequences": ("evolution", "simulate_leaf_sequences", _site_edges),
    "all_same_probability": ("evolution", "all_same_probability", None),
    "write_fasta": ("formats", "write_fasta", None),
    "emit_newick": ("formats", "emit_newick", None),
    "parse_newick": ("formats", "parse_newick", None),
    "neighbor_join": ("treespace", "neighbor_join", None),
    "check_four_point": ("treespace", "check_four_point", _quartets),
    "check_metric": ("treespace", "check_metric", None),
    "cli_main": ("cli", "main", None),
}

# (calling module, attribute it holds, defining module, counter) for the
# public cross-module calls made inside phylokit
CROSS = [
    ("hmm", "evaluate_chain", "semirings", _chain),
    ("pipeline", "run_pipeline", "pipeline", None),
    ("pipeline", "distances_from_alignment", "pipeline", _pair_sites),
    ("pipeline", "neighbor_join", "treespace", None),
    ("pipeline", "all_same_probability", "evolution", None),
    ("pipeline", "emit_newick", "formats", None),
    ("pipeline", "read_fasta", "formats", None),
    ("pipeline", "jc_distance", "evolution", None),
]


def build_api(pk: SimpleNamespace, tracer: Tracer | None = None) -> SimpleNamespace:
    """The functions jobs call; ``pk`` maps module names to modules."""
    api = {}
    for attr, (mod, fn_name, count) in DIRECT.items():
        fn = getattr(getattr(pk, mod), fn_name)
        api[attr] = fn if tracer is None else _traced(tracer, f"{mod}.{fn_name}", fn, count)
    return SimpleNamespace(**api)


@contextmanager
def cross_module_spans(pk: SimpleNamespace, tracer: Tracer):
    """Replace the cross-module references with traced wrappers, and put
    the originals back afterwards.  A reference a later version of the
    program no longer holds is skipped."""
    saved = []
    try:
        for caller, attr, owner, count in CROSS:
            module = getattr(pk, caller)
            if not hasattr(module, attr):
                continue
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, _traced(tracer, f"{owner}.{attr}", original, count))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


# ---------------------------------------------------------------------------
# per-module metrics


def _aggregate(spans: list[Span], factors: dict[int, float]):
    """Per-name busy time, self time, calls and errors, and summed
    counters.  Durations are divided by their job's speed factor, so they
    are in reference seconds like the end-to-end times."""
    by_id = {s.id: s for s in spans}

    def duration(s: Span) -> float:
        return (s.end - s.start) / factors[s.job]

    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + duration(s)
    busy: dict[str, float] = {}
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    errors: dict[str, int] = {}
    counts: dict[str, float] = {}
    for s in spans:
        dur = duration(s)
        self_s[s.name] = self_s.get(s.name, 0.0) + dur - child_time.get(s.id, 0.0)
        calls[s.name] = calls.get(s.name, 0) + 1
        # busy time counts a span only when no ancestor has the same name
        p = s.parent
        while p is not None and by_id[p].name != s.name:
            p = by_id[p].parent
        if p is None:
            busy[s.name] = busy.get(s.name, 0.0) + dur
        if s.error is not None:
            errors[s.name] = errors.get(s.name, 0) + 1
        for k, v in s.counts.items():
            counts[k] = counts.get(k, 0) + v
    return busy, self_s, calls, errors, counts


def layer_metrics(spans: list[Span], jobs: list[dict]) -> dict[str, float]:
    """Per-module metrics from one traced phase.  ``jobs`` are the job
    records of that phase."""
    factors = {j["job_id"]: j["speed"] for j in jobs}
    busy, self_s, calls, errors, counts = _aggregate(spans, factors)

    def module_sum(table, module):
        return sum(v for k, v in table.items() if k.startswith(module + "."))

    raised_in = {s.job for s in spans if s.error is not None and not s.name.startswith("job.")}

    def failed(module):
        """Calls that raised, plus failed checks of jobs in which no call
        raised, charged to the job's module."""
        checked = sum(1 for j in jobs if not j["ok"] and j["module"] == module
                      and j["job_id"] not in raised_in)
        return module_sum(errors, module) + checked

    def share(module, flag):
        sel = [j for j in jobs if j["module"] == module]
        return sum(1 for j in sel if j[flag]) / len(sel) if sel else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    out: dict[str, float] = {}
    for fn in ("pair_probability", "viterbi_alignment", "score_alignment_basic", "parametric_polygon"):
        out[f"pairhmm.{fn}.busy_s"] = busy.get(f"pairhmm.{fn}", 0.0)
    pair_busy = sum(out[f"pairhmm.{fn}.busy_s"] for fn in (
        "pair_probability", "viterbi_alignment", "score_alignment_basic", "parametric_polygon"))
    out["pairhmm.calls"] = module_sum(calls, "pairhmm")
    out["pairhmm.failed"] = failed("pairhmm")
    out["pairhmm.cells"] = counts.get("cells", 0)
    out["pairhmm.cells_per_s"] = ratio(out["pairhmm.cells"], pair_busy)
    out["pairhmm.polygon_vertices"] = counts.get("polygon_vertices", 0)
    out["pairhmm.tie_jobs_share"] = share("pairhmm", "tie")

    out["semirings.evaluate_chain.busy_s"] = busy.get("semirings.evaluate_chain", 0.0)
    out["semirings.evaluate_chain.calls"] = calls.get("semirings.evaluate_chain", 0)
    out["semirings.chain_steps"] = counts.get("chain_steps", 0)

    out["hmm.viterbi_explanation.self_s"] = self_s.get("hmm.viterbi_explanation", 0.0)
    out["hmm.log_forward.busy_s"] = busy.get("hmm.log_forward", 0.0)
    out["hmm.baum_welch_train.busy_s"] = busy.get("hmm.baum_welch_train", 0.0)
    out["hmm.em_iters"] = counts.get("em_iters", 0)
    out["hmm.tie_jobs_share"] = share("hmm", "tie")
    out["hmm.failed"] = failed("hmm")

    out["evolution.simulate_leaf_sequences.busy_s"] = busy.get("evolution.simulate_leaf_sequences", 0.0)
    out["evolution.site_edges"] = counts.get("site_edges", 0)
    out["evolution.all_same_probability.busy_s"] = busy.get("evolution.all_same_probability", 0.0)
    out["evolution.jc_distance.calls"] = calls.get("evolution.jc_distance", 0)
    out["evolution.failed"] = failed("evolution")

    out["pipeline.run_pipeline.self_s"] = self_s.get("pipeline.run_pipeline", 0.0)
    out["pipeline.distances_from_alignment.busy_s"] = busy.get("pipeline.distances_from_alignment", 0.0)
    out["pipeline.pair_sites"] = counts.get("pair_sites", 0)
    out["pipeline.pair_sites_per_s"] = ratio(
        out["pipeline.pair_sites"], out["pipeline.distances_from_alignment.busy_s"])

    out["treespace.neighbor_join.busy_s"] = busy.get("treespace.neighbor_join", 0.0)
    out["treespace.nj_q_entries"] = counts.get("nj_q_entries", 0)
    out["treespace.nj_clamps"] = counts.get("nj_clamps", 0)
    out["treespace.check_four_point.busy_s"] = busy.get("treespace.check_four_point", 0.0)
    out["treespace.check_metric.busy_s"] = busy.get("treespace.check_metric", 0.0)
    out["treespace.quartets"] = counts.get("quartets", 0)

    for fn in ("read_fasta", "write_fasta", "emit_newick", "parse_newick"):
        out[f"formats.{fn}.busy_s"] = busy.get(f"formats.{fn}", 0.0)
    out["cli.main.self_s"] = self_s.get("cli.main", 0.0)
    return out
