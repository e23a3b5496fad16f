"""The ``decode`` workload: HMM Viterbi, forward and Baum-Welch jobs.

This is the ``semirings`` layer used through ``evaluate_chain`` rather
than the pair grid, so a fold rewrite that helps ``align`` and costs
``decode`` shows here.  It does not touch ``pairhmm``, ``treespace`` or
``evolution``.  A fifth of the jobs use all-tie models (every transition
and every emission equal), on which Viterbi is quadratic at this version.
"""

from __future__ import annotations

from bisect import bisect

import numpy as np

import reference as ref
from harness import Job, Verdict, stratified

MODULE = "hmm"
ALPHABET = 4
OBS_LENGTHS = (1000, 4000)
TRAIN_SEQS, TRAIN_LENGTH, TRAIN_ITERS = 10, 500, 3

# one round: (kind, k per size stratum, tie-model strata, length range)
ROUND = [
    ("viterbi", (2, 4, 8, 2, 4, 8, 2), set(), OBS_LENGTHS),
    ("viterbi", (2, 2), {0, 1}, (1000, 2500)),
    ("viterbi", (4,), {0}, (1000, 1200)),
    ("forward", (2, 4, 8, 2, 4, 8), set(), OBS_LENGTHS),
    ("forward", (8,), {0}, OBS_LENGTHS),
    ("train", (2, 4, 4), set(), None),
]


def _random_model(pk, rng, k: int):
    return pk.hmm.HmmParams(
        trans=rng.dirichlet(np.full(k, 2.0), size=k),
        emit=rng.dirichlet(np.full(ALPHABET, 2.0), size=k),
        init=rng.dirichlet(np.full(k, 2.0)),
    )


def _tie_model(pk, k: int):
    return pk.hmm.HmmParams(
        trans=np.full((k, k), 1.0 / k),
        emit=np.full((k, ALPHABET), 1.0 / ALPHABET),
        init=np.full(k, 1.0 / k),
    )


def _is_all_tie(h) -> bool:
    return bool((h.trans == h.trans.flat[0]).all() and (h.emit == h.emit.flat[0]).all()
                and (h.init == h.init[0]).all())


def _sample(rng, h, n: int) -> np.ndarray:
    """An observation string drawn from the model itself."""
    cum = np.cumsum(h.trans, axis=1).tolist()
    u = rng.random(n).tolist()
    states = [int(rng.choice(h.k, p=h.init))]
    for t in range(1, n):
        states.append(min(bisect(cum[states[-1]], u[t]), h.k - 1))
    ecum = np.cumsum(h.emit, axis=1)[states]
    return np.minimum((rng.random(n)[:, None] > ecum).sum(axis=1), ALPHABET - 1)


def _viterbi_job(h, obs, tie) -> Job:
    n = len(obs)
    memo = {}

    def check(out):
        if len(out.states) != n or not set(out.states) <= set(h.labels):
            return Verdict(False, "path has the wrong length or labels")
        index = {lab: i for i, lab in enumerate(h.labels)}
        path = [index[s] for s in out.states]
        term = ref.hmm_path_log_term(h.trans, h.emit, h.init, obs, path)
        tol = 1e-9 * n
        if abs(term - out.log_score) > tol:
            return Verdict(False, f"path term {term} != log_score {out.log_score}")
        if "ref" not in memo:
            memo["ref"] = ref.hmm_viterbi_forward(h.trans, h.emit, h.init, obs)
        if abs(memo["ref"][0] - out.log_score) > tol:
            return Verdict(False, f"log_score {out.log_score} is not the optimum {memo['ref'][0]}")
        if tie and set(out.states) != {min(h.labels)}:
            return Verdict(False, "all-tie model did not decode to the smallest label")
        return Verdict(True)

    return Job("viterbi", MODULE, lambda api: api.viterbi_explanation(h, obs), check,
               tie=tie)


def _forward_job(h, obs, tie) -> Job:
    n = len(obs)
    memo = {}

    def check(out):
        if "ref" not in memo:
            memo["ref"] = ref.hmm_viterbi_forward(h.trans, h.emit, h.init, obs)
        best, log_p = memo["ref"]
        tol = 1e-9 * n
        if not out >= best - tol:
            return Verdict(False, f"log_forward {out} below the best path {best}")
        if abs(out - log_p) > tol:
            return Verdict(False, f"log_forward {out} != reference {log_p}")
        return Verdict(True)

    return Job("forward", MODULE, lambda api: api.log_forward(h, obs), check,
               tie=tie)


def _train_job(h0, data) -> Job:
    total = sum(len(d) for d in data)
    memo = {}

    def run(api):
        return api.baum_welch_train(h0, data, max_iters=TRAIN_ITERS)

    def check(out):
        params, trace = out
        if not 2 <= len(trace) <= TRAIN_ITERS + 1:
            return Verdict(False, f"trace length {len(trace)}")
        for a, b in zip(trace, trace[1:]):
            if b < a - 1e-8 * abs(a):
                return Verdict(False, f"log-likelihood fell from {a} to {b}")
        if "ll0" not in memo:
            memo["ll0"] = sum(ref.hmm_viterbi_forward(h0.trans, h0.emit, h0.init, d)[1] for d in data)
        if abs(trace[0] - memo["ll0"]) > 1e-9 * total:
            return Verdict(False, f"trace starts at {trace[0]}, not {memo['ll0']}")
        for table in (params.trans, params.emit):
            if np.abs(np.asarray(table).sum(axis=1) - 1.0).max() > 1e-9:
                return Verdict(False, "trained rows do not sum to 1")
        return Verdict(True)

    return Job("train", MODULE, run, check)


def make_round(env, rng, index: int) -> list[Job]:
    pk, scale = env.pk, env.scale
    jobs = []
    for kind, ks, tie_strata, lengths in ROUND:
        for s, k in enumerate(ks):
            if kind == "train":
                truth = _random_model(pk, rng, k)
                length = max(20, round(TRAIN_LENGTH * scale))
                data = [_sample(rng, truth, length) for _ in range(TRAIN_SEQS)]
                jobs.append(_train_job(_random_model(pk, rng, k), data))
                continue
            n = max(20, round(stratified(*lengths, s, len(ks)) * scale))
            if s in tie_strata:
                h = _tie_model(pk, k)
                obs = rng.integers(0, ALPHABET, n)
            else:
                h = _random_model(pk, rng, k)
                obs = _sample(rng, h, n)
            make = _viterbi_job if kind == "viterbi" else _forward_job
            jobs.append(make(h, obs, _is_all_tie(h)))
    order = rng.permutation(len(jobs))
    return [jobs[i] for i in order]


def warmup(env, api) -> None:
    pk = env.pk
    rng = np.random.Generator(np.random.Philox(0))
    h = _random_model(pk, rng, 2)
    obs = _sample(rng, h, 30)
    api.viterbi_explanation(h, obs)
    api.log_forward(h, obs)
    api.baum_welch_train(h, [obs], max_iters=1)
