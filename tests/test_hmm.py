"""Forward likelihood against exhaustive path sums, decoding against
exhaustive arg-max with the same tie rule, and training monotonicity."""

import itertools
import logging
import math
import tracemalloc

import numpy as np
import pytest

from phylokit.hmm import (
    HmmParams,
    _backward,
    _forward,
    _pack,
    baum_welch_train,
    forward_probability,
    log_forward,
    viterbi_explanation,
)

from conftest import block_lengths, rng


def uniform_params(k: int, l: int, mode: str = "stochastic") -> HmmParams:
    """All-uniform model, a degenerate test point; ``init=None`` takes the
    mode's default initial weights."""
    return HmmParams(
        trans=np.full((k, k), 1.0 / k), emit=np.full((k, l), 1.0 / l),
        init=None, mode=mode,
    )


def _random_params(g, k, l, mode="stochastic") -> HmmParams:
    trans = g.random((k, k)) + 0.05
    trans /= trans.sum(axis=1, keepdims=True)
    emit = g.random((k, l)) + 0.05
    emit /= emit.sum(axis=1, keepdims=True)
    if mode == "stochastic":
        init = g.random(k) + 0.05
        init /= init.sum()
    else:
        init = np.ones(k)
    return HmmParams(trans=trans, emit=emit, init=init, mode=mode)


def _enum_forward(h: HmmParams, obs) -> float:
    total = 0.0
    for path in itertools.product(range(h.k), repeat=len(obs)):
        term = h.init[path[0]] * h.emit[path[0], obs[0]]
        for t in range(1, len(obs)):
            term = term * h.trans[path[t - 1], path[t]] * h.emit[path[t], obs[t]]
        total += term
    return total


def _enum_viterbi(h: HmmParams, obs):
    best_score, best_word = None, None
    for path in itertools.product(range(h.k), repeat=len(obs)):
        score = math.log(h.init[path[0]]) + math.log(h.emit[path[0], obs[0]])
        for t in range(1, len(obs)):
            score = score + math.log(h.trans[path[t - 1], path[t]])
            score = score + math.log(h.emit[path[t], obs[t]])
        word = tuple(h.labels[i] for i in path)
        if (
            best_score is None
            or score > best_score
            or (score == best_score and word < best_word)
        ):
            best_score, best_word = score, word
    return best_word, best_score


# ---------------------------------------------------------------------------
# forward


def test_forward_single_state_is_emission_product():
    h = HmmParams(
        trans=[[1.0]],
        emit=[[0.2, 0.3, 0.4, 0.1]],
        init=[1.0],
        mode="stochastic",
    )
    assert forward_probability(h, [0, 2, 2, 1]) == pytest.approx(
        0.2 * 0.4 * 0.4 * 0.3, rel=1e-12
    )


def test_forward_length_one_unit_initial_sums_emissions():
    g = rng(41)
    h = _random_params(g, 3, 4, mode="unit-initial")
    assert forward_probability(h, [2]) == pytest.approx(
        float(h.emit[:, 2].sum()), rel=1e-12
    )


def test_forward_matches_exhaustive_path_sum():
    g = rng(42)
    for trial in range(10):
        mode = "stochastic" if trial % 2 else "unit-initial"
        h = _random_params(g, 2, 3, mode=mode)
        obs = [int(x) for x in g.integers(0, 3, size=6)]
        assert forward_probability(h, obs) == pytest.approx(
            _enum_forward(h, obs), rel=1e-12
        )


def test_forward_agrees_with_generic_chain_evaluator():
    # the scaled forward and the probability-semiring chain fold are the
    # same sum computed two ways
    from phylokit.semirings import ChainSpec, ProbabilitySemiring, evaluate_chain

    g = rng(52)
    h = _random_params(g, 3, 4)
    obs = [int(x) for x in g.integers(0, 4, size=9)]
    initial = tuple(h.init * h.emit[:, obs[0]])
    steps = tuple(
        tuple(map(tuple, h.trans * h.emit[:, s][None, :])) for s in obs[1:]
    )
    chain_value = evaluate_chain(
        ChainSpec(initial=initial, steps=steps), ProbabilitySemiring
    )
    assert forward_probability(h, obs) == pytest.approx(
        float(chain_value.value), rel=1e-12
    )


def test_forward_sums_to_one_in_stochastic_mode():
    g = rng(43)
    h = _random_params(g, 2, 2)
    for n in (1, 4, 8):
        total = sum(
            forward_probability(h, list(obs))
            for obs in itertools.product(range(2), repeat=n)
        )
        assert total == pytest.approx(1.0, abs=1e-9)


def test_forward_sums_to_k_in_unit_initial_mode():
    g = rng(44)
    for k in (1, 2, 3):
        h = _random_params(g, k, 2, mode="unit-initial")
        total = sum(
            forward_probability(h, list(obs))
            for obs in itertools.product(range(2), repeat=5)
        )
        assert total == pytest.approx(float(k), abs=1e-9)


def test_forward_input_validation():
    h = uniform_params(2, 4)
    with pytest.raises(ValueError):
        forward_probability(h, [])
    with pytest.raises(ValueError, match="symbol 4"):
        forward_probability(h, [0, 4])


def test_log_forward_handles_deep_underflow():
    h = uniform_params(2, 4)
    obs = [0] * 4000
    assert log_forward(h, obs) == pytest.approx(4000 * math.log(0.25), rel=1e-12)
    assert forward_probability(h, obs) == 0.0  # underflows as a plain float


def _late_switch(zero_in_state_1: float) -> HmmParams:
    # identity transitions: every hidden path stays in its first state.
    # State 0 cannot emit symbol 2, so after 2,999 zeros and then a 2 only
    # state 1's path is left, a closed form far below underflow.
    return HmmParams(
        trans=np.eye(2),
        emit=[[0.9, 0.1, 0.0, 0.0], [zero_in_state_1, 0.2 - zero_in_state_1, 0.4, 0.4]],
        init=[0.5, 0.5],
    )


LATE_SWITCH_OBS = [0] * 2999 + [2]


@pytest.mark.parametrize("zero_in_state_1", [0.1, 1e-300])
def test_log_forward_late_switch_closed_form(zero_in_state_1):
    # at 0.1 the fold runs on block products; at 1e-300 a step's spread
    # (ln 0.9 - ln 1e-300, about 690) leaves it one step at a time
    want = math.log(0.5) + 2999 * math.log(zero_in_state_1) + math.log(0.4)
    got = log_forward(_late_switch(zero_in_state_1), LATE_SWITCH_OBS)
    assert got == pytest.approx(want, rel=1e-12)


def test_log_forward_logs_its_block_length(caplog):
    assert any(
        isinstance(handler, logging.NullHandler)
        for handler in logging.getLogger("phylokit").handlers
    )
    caplog.set_level(logging.DEBUG, logger="phylokit.semirings")
    log_forward(_late_switch(0.1), LATE_SWITCH_OBS)
    log_forward(_late_switch(1e-300), LATE_SWITCH_OBS)
    blocked, per_position = block_lengths(caplog)
    assert blocked > 1 and per_position == 1
    # without DEBUG enabled the fold logs nothing
    caplog.set_level(logging.INFO, logger="phylokit.semirings")
    caplog.clear()
    log_forward(_late_switch(0.1), LATE_SWITCH_OBS)
    assert not caplog.records


def _packed_log_forward(h: HmmParams, obs) -> float:
    # Baum-Welch's scaled forward on a batch of one: the logs of the
    # per-position scales sum to the log-likelihood
    _, scales = _forward(h, h.emit.T[np.asarray(obs)], [1] * len(obs))
    return float("-inf") if (scales == 0.0).any() else float(np.log(scales).sum())


@pytest.mark.parametrize("k", [1, 2, 4, 8])
def test_log_forward_folds_the_likelihood_of_the_packed_forward(k):
    g = rng(60 + k)
    h = _random_params(g, k, 4)
    # zeros in every table: some paths vanish, and symbol 3 has
    # probability zero in every state
    trans, emit = h.trans * (g.random((k, k)) < 0.7), h.emit * (g.random((k, 4)) < 0.7)
    trans[np.arange(k), g.integers(0, k, size=k)] += 0.1
    emit[:, :3] += 0.1
    emit[:, 3] = 0.0
    sparse = HmmParams(
        trans=trans / trans.sum(axis=1, keepdims=True),
        emit=emit / emit.sum(axis=1, keepdims=True),
        init=h.init,
    )
    for n in (1, 2, 1000, 4000):
        for model, symbols in ((h, 4), (sparse, 3)):
            obs = g.integers(0, symbols, size=n)
            want = _packed_log_forward(model, obs)
            assert math.isfinite(want)
            assert log_forward(model, obs) == pytest.approx(want, rel=1e-12)
        obs[g.integers(0, n)] = 3
        assert _packed_log_forward(sparse, obs) == float("-inf")
        assert log_forward(sparse, obs) == float("-inf")


# ---------------------------------------------------------------------------
# decoding


def test_viterbi_total_tie_gives_lexicographically_smallest_path():
    h = uniform_params(3, 2)
    expl = viterbi_explanation(h, [0, 1, 0, 1])
    assert expl.states == ("0",) * 4
    named = HmmParams(
        trans=np.full((2, 2), 0.5),
        emit=np.full((2, 4), 0.25),
        init=np.array([0.5, 0.5]),
        labels=("intron", "exon"),
    )
    assert viterbi_explanation(named, [0, 1]).states == ("exon", "exon")


def test_viterbi_all_tie_long_observation():
    # resolving exact ties must not compare whole paths: a linear fold
    # decodes this in well under a second
    n = 10_000
    obs = [i % 4 for i in range(n)]
    expl = viterbi_explanation(uniform_params(4, 4), obs)
    assert expl.states == ("0",) * n
    q = math.log(1 / 4)
    assert expl.log_score == pytest.approx(n * q + (n - 1) * q + q)


@pytest.mark.parametrize("k", [2, 4, 8])
def test_viterbi_all_tie_models_at_scale(k):
    # every path ties; the smallest label wins at each of 4,000 positions,
    # across the fold's many key re-rankings
    n = 4_000
    obs = [i % 3 for i in range(n)]
    expl = viterbi_explanation(uniform_params(k, 3), obs)
    assert expl.states == ("0",) * n


def test_viterbi_random_model_at_scale_rescores_exactly():
    g = rng(54)
    h = _random_params(g, 8, 4)
    sigma = g.integers(0, 4, size=4_000)
    expl = viterbi_explanation(h, sigma.tolist())
    log_trans, log_emit, log_init = map(np.log, (h.trans, h.emit, h.init))
    # the best value by a max-only fold, with the same float sums
    scores = log_init + log_emit[:, sigma[0]]
    for o in sigma[1:]:
        scores = (scores[:, None] + (log_trans + log_emit[:, o])).max(axis=0)
    assert expl.log_score == scores.max()
    idx = {lab: i for i, lab in enumerate(h.labels)}
    path = [idx[s] for s in expl.states]
    rescored = log_init[path[0]] + log_emit[path[0], sigma[0]]
    for t in range(1, len(sigma)):
        rescored += log_trans[path[t - 1], path[t]] + log_emit[path[t], sigma[t]]
    assert expl.log_score == rescored


def test_viterbi_single_state():
    h = HmmParams(trans=[[1.0]], emit=[[0.25, 0.75]], init=[1.0])
    expl = viterbi_explanation(h, [1, 0, 1])
    assert expl.states == ("0", "0", "0")
    assert expl.log_score == pytest.approx(
        math.log(0.75) + math.log(0.25) + math.log(0.75), rel=1e-12
    )


def test_viterbi_matches_exhaustive_argmax():
    g = rng(45)
    for trial in range(20):
        k = 2 + trial % 2
        h = _random_params(g, k, 3)
        n = 3 + trial % 4
        obs = [int(x) for x in g.integers(0, 3, size=n)]
        expl = viterbi_explanation(h, obs)
        word, score = _enum_viterbi(h, obs)
        assert expl.states == word
        assert expl.log_score == pytest.approx(score, rel=1e-12)


def test_viterbi_structured_ties_match_enumeration():
    # mirror-symmetric emissions force exact score ties between whole
    # families of paths; the decoder must still pick the enumeration's
    # lexicographic minimum
    g = rng(53)
    for _ in range(20):
        p = float(g.random() * 0.8 + 0.1)
        h = HmmParams(
            trans=np.full((2, 2), 0.5),
            emit=np.array([[p, 1 - p], [1 - p, p]]),
            init=np.array([0.5, 0.5]),
        )
        obs = [int(x) for x in g.integers(0, 2, size=7)]
        word, score = _enum_viterbi(h, obs)
        expl = viterbi_explanation(h, obs)
        assert expl.states == word
        assert expl.log_score == pytest.approx(score, rel=1e-12)


def test_viterbi_rescoring_consistency():
    g = rng(46)
    h = _random_params(g, 3, 4)
    obs = [int(x) for x in g.integers(0, 4, size=12)]
    expl = viterbi_explanation(h, obs)
    idx = {lab: i for i, lab in enumerate(h.labels)}
    path = [idx[s] for s in expl.states]
    rescored = math.log(h.init[path[0]] * h.emit[path[0], obs[0]])
    for t in range(1, len(obs)):
        rescored += math.log(h.trans[path[t - 1], path[t]])
        rescored += math.log(h.emit[path[t], obs[t]])
    assert expl.log_score == pytest.approx(rescored, rel=1e-12)


def test_viterbi_score_never_exceeds_forward():
    g = rng(47)
    for _ in range(10):
        h = _random_params(g, 2, 2)
        obs = [int(x) for x in g.integers(0, 2, size=7)]
        assert viterbi_explanation(h, obs).log_score <= log_forward(h, obs) + 1e-12


def test_viterbi_all_paths_zero_is_an_error():
    h = HmmParams(
        trans=[[0.5, 0.5], [0.5, 0.5]],
        emit=[[1.0, 0.0], [1.0, 0.0]],
        init=[0.5, 0.5],
    )
    with pytest.raises(ValueError, match="zero probability"):
        viterbi_explanation(h, [0, 1, 0])


# ---------------------------------------------------------------------------
# training


def test_train_single_state_recovers_emission_frequencies():
    h0 = HmmParams(trans=[[1.0]], emit=[[0.25, 0.25, 0.25, 0.25]], init=[1.0])
    data = [[0, 1, 1, 2], [2, 1, 0, 0]]
    trained, trace = baum_welch_train(h0, data, max_iters=50, tol=1e-10)
    counts = np.bincount([s for obs in data for s in obs], minlength=4)
    assert np.allclose(trained.emit[0], counts / counts.sum(), atol=1e-12)
    assert len(trace) <= 4  # converges immediately after one update


def test_train_repeated_symbol_concentrates_emission():
    g = rng(48)
    h0 = _random_params(g, 2, 3)
    trained, _ = baum_welch_train(h0, [[1] * 12] * 4, max_iters=50, tol=0.0)
    assert trained.emit[:, 1].max() >= 0.99


def test_train_loglikelihood_monotone_and_deterministic():
    g = rng(49)
    planted = _random_params(g, 2, 2)
    data = []
    for _ in range(20):
        n = 10
        states = [int(g.integers(2))]
        for _ in range(n - 1):
            states.append(int(g.random() > planted.trans[states[-1], 0]))
        data.append(
            [int(g.random() > planted.emit[s, 0]) for s in states]
        )
    h0 = _random_params(g, 2, 2)
    trained, trace = baum_welch_train(h0, data, max_iters=40, tol=1e-12)
    diffs = np.diff(trace)
    assert (diffs >= -1e-9).all()
    assert trace[-1] >= trace[0]
    rerun, trace2 = baum_welch_train(h0, data, max_iters=40, tol=1e-12)
    assert trace2 == trace
    assert (rerun.trans == trained.trans).all()
    assert (rerun.emit == trained.emit).all()
    assert (rerun.init == trained.init).all()


def _oracle_forward_backward(h: HmmParams, sigma):
    n, k = len(sigma), h.k
    alpha = np.empty((n, k))
    scales = np.empty(n)
    cur = h.init * h.emit[:, sigma[0]]
    for t in range(n):
        if t > 0:
            cur = (alpha[t - 1] @ h.trans) * h.emit[:, sigma[t]]
        scales[t] = cur.sum()
        alpha[t] = cur / scales[t]
    beta = np.empty((n, k))
    beta[-1] = 1.0
    for t in range(n - 2, -1, -1):
        beta[t] = (h.trans @ (h.emit[:, sigma[t + 1]] * beta[t + 1])) / scales[t + 1]
    return alpha, beta, scales, float(np.log(scales).sum())


def _oracle_baum_welch(h0: HmmParams, data, max_iters, tol):
    """Training one sequence and one position at a time."""
    sigmas = [np.asarray(obs) for obs in data]
    params = h0
    trace = []
    for _ in range(max_iters):
        k, l = params.k, params.l
        trans_num = np.zeros((k, k))
        trans_den = np.zeros(k)
        emit_num = np.zeros((k, l))
        emit_den = np.zeros(k)
        init_acc = np.zeros(k)
        total_ll = 0.0
        for sigma in sigmas:
            alpha, beta, scales, ll = _oracle_forward_backward(params, sigma)
            total_ll += ll
            gamma = alpha * beta
            gamma /= gamma.sum(axis=1, keepdims=True)
            init_acc += gamma[0]
            for t in range(len(sigma) - 1):
                xi = (
                    params.trans
                    * np.outer(alpha[t], params.emit[:, sigma[t + 1]] * beta[t + 1])
                    / scales[t + 1]
                )
                trans_num += xi
                trans_den += gamma[t]
            for t, s in enumerate(sigma):
                emit_num[:, s] += gamma[t]
                emit_den += gamma[t]
        trace.append(total_ll)
        if len(trace) >= 2 and trace[-1] - trace[-2] < tol:
            return params, trace
        new_trans = params.trans.copy()
        visited = trans_den > 0
        new_trans[visited] = trans_num[visited] / trans_den[visited, None]
        new_trans[visited] /= new_trans[visited].sum(axis=1, keepdims=True)
        new_emit = params.emit.copy()
        seen = emit_den > 0
        new_emit[seen] = emit_num[seen] / emit_den[seen, None]
        new_emit[seen] /= new_emit[seen].sum(axis=1, keepdims=True)
        params = HmmParams(
            trans=new_trans,
            emit=new_emit,
            init=init_acc / init_acc.sum(),
            labels=params.labels,
        )
    trace.append(sum(_oracle_forward_backward(params, s)[3] for s in sigmas))
    return params, trace


def test_train_unequal_lengths_match_per_sequence_oracle():
    g = rng(54)
    for trial in range(6):
        k, l = 2 + trial % 3, 3
        h0 = _random_params(g, k, l)
        if trial % 2:
            # rows may sum to 1 within the validation tolerance; a short
            # sequence's backward pass must start on its own last position
            # and not carry that drift in from a longer one
            drift = 1 + 5e-10 * (-1.0) ** np.arange(k)
            h0 = HmmParams(trans=h0.trans * drift[:, None], emit=h0.emit, init=h0.init)
        lengths = [1, 2, 7, 1, 30, 12][: 2 + trial]
        data = [[int(x) for x in g.integers(0, l, size=n)] for n in lengths]
        iters = 1 + trial
        got, trace = baum_welch_train(h0, data, max_iters=iters, tol=0.0)
        want, want_trace = _oracle_baum_welch(h0, data, iters, 0.0)
        assert len(trace) == len(want_trace)
        np.testing.assert_allclose(trace, want_trace, rtol=1e-12, atol=0)
        for name in ("trans", "emit", "init"):
            np.testing.assert_allclose(
                getattr(got, name), getattr(want, name), rtol=1e-12, atol=0
            )


def test_train_skewed_lengths_match_per_sequence_oracle():
    g = rng(56)
    h0 = _random_params(g, 3, 4)
    lengths = [4, 300, 1, 5, 2, 3] * 5 + [120]
    data = [[int(x) for x in g.integers(0, 4, size=n)] for n in lengths]
    got, trace = baum_welch_train(h0, data, max_iters=2, tol=0.0)
    want, want_trace = _oracle_baum_welch(h0, data, 2, 0.0)
    np.testing.assert_allclose(trace, want_trace, rtol=1e-12, atol=0)
    for name in ("trans", "emit", "init"):
        np.testing.assert_allclose(
            getattr(got, name), getattr(want, name), rtol=1e-12, atol=0
        )


def _edge_emissions(g, k, l):
    """Emission rows with exact zeros and entries near 1e-150; every
    symbol keeps one ordinary entry in some state, so every observation
    has positive probability under positive transitions."""
    emit = g.random((k, l)) + 0.05
    cut = g.random((k, l))
    emit[cut < 0.25] = 0.0
    emit[(cut >= 0.25) & (cut < 0.45)] = 1e-150 * (1.0 + g.random())
    emit[g.integers(0, k, size=l), np.arange(l)] = 0.5
    return emit / emit.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("k", [1, 2, 5])
def test_packed_forward_backward_match_the_per_sequence_passes(k):
    # every row of alpha * beta is the posterior of its position and sums
    # to 1; beta is each sequence's own scaled backward pass, though the
    # packed pass runs all sequences at once on pre-divided weights
    g = rng(80 + k)
    lengths = [1, 2, 7, 7, 30]
    for trial in range(4):
        base = _random_params(g, k, 4)
        emit = _edge_emissions(g, k, 4) if trial % 2 else base.emit
        h = HmmParams(trans=base.trans, emit=emit, init=base.init)
        sigmas = [g.integers(0, 4, size=n) for n in g.permutation(lengths)]
        obs, counts, _, order = _pack(sigmas)
        factors = h.emit.T[obs]
        alpha, scales = _forward(h, factors, counts)
        assert (scales > 0).all()
        beta = _backward(h, factors / scales[:, None], counts)
        np.testing.assert_allclose((alpha * beta).sum(axis=1), 1.0, rtol=0, atol=1e-12)
        offsets = np.cumsum([0] + counts)
        for rank, s in enumerate(order):
            rows = offsets[: len(sigmas[s])] + rank
            want_alpha, want_beta, want_scales, _ = _oracle_forward_backward(h, sigmas[s])
            np.testing.assert_allclose(beta[rows], want_beta, rtol=1e-12, atol=0)
            np.testing.assert_allclose(alpha[rows], want_alpha, rtol=1e-12, atol=0)
            np.testing.assert_allclose(scales[rows], want_scales, rtol=1e-12, atol=0)


def test_train_memory_follows_total_length():
    # one long sequence among many short ones: padding every sequence to
    # the longest would take 200 * 20,000 * 4 doubles (128 MB) per table
    g = rng(57)
    h0 = _random_params(g, 4, 4)
    data = [g.integers(0, 4, size=10) for _ in range(200)]
    data.append(g.integers(0, 4, size=20_000))
    tracemalloc.start()
    try:
        baum_welch_train(h0, data, max_iters=1, tol=0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_train_unvisited_state_keeps_its_rows():
    # state 2 starts with weight 0 and no transition enters it
    h0 = HmmParams(
        trans=[[0.6, 0.4, 0.0], [0.3, 0.7, 0.0], [0.2, 0.3, 0.5]],
        emit=[[0.5, 0.3, 0.2], [0.1, 0.6, 0.3], [0.3, 0.3, 0.4]],
        init=[0.5, 0.5, 0.0],
    )
    data = [[0, 1, 2, 2, 1], [1], [2, 0]]
    got, trace = baum_welch_train(h0, data, max_iters=5, tol=0.0)
    want, want_trace = _oracle_baum_welch(h0, data, 5, 0.0)
    np.testing.assert_allclose(trace, want_trace, rtol=1e-12, atol=0)
    assert (got.trans[2] == h0.trans[2]).all()
    assert (got.emit[2] == h0.emit[2]).all()
    assert got.init[2] == 0.0
    assert (got.trans[:2, 2] == 0.0).all()
    for name in ("trans", "emit", "init"):
        np.testing.assert_allclose(
            getattr(got, name), getattr(want, name), rtol=1e-12, atol=0
        )


def test_zero_probability_observation():
    h = HmmParams(
        trans=[[0.5, 0.5], [0.5, 0.5]],
        emit=[[1.0, 0.0], [1.0, 0.0]],
        init=[0.5, 0.5],
    )
    assert log_forward(h, [0, 1, 0]) == float("-inf")
    assert log_forward(h, [1]) == float("-inf")
    assert forward_probability(h, [0, 0, 1]) == 0.0
    with pytest.raises(ValueError, match="zero probability under current model"):
        baum_welch_train(h, [[0, 0, 0], [0, 1]])


def test_zero_probability_names_the_observation_and_the_position():
    h = HmmParams(
        trans=[[0.5, 0.5], [0.5, 0.5]],
        emit=[[0.7, 0.3, 0.0], [0.2, 0.8, 0.0]],
        init=[0.5, 0.5],
    )
    # the bad sequence is the longest, so it packs first, not second
    data = [[0, 1, 0], [1, 1, 2, 0, 0, 1, 0], [0, 0]]
    with pytest.raises(ValueError) as info:
        baum_welch_train(h, data)
    message = str(info.value)
    assert "observation 1 has zero probability under current model" in message
    assert "position 2" in message
    # of two bad sequences the first in ``data`` is named, even where a
    # later one hits zero at an earlier position
    data = [[0, 1], [0, 0, 0, 2], [2, 0, 0, 0, 0]]
    with pytest.raises(ValueError, match="observation 1 .* position 3 "):
        baum_welch_train(h, data)


def test_train_input_validation():
    h0 = uniform_params(2, 2)
    with pytest.raises(ValueError, match="empty"):
        baum_welch_train(h0, [])
    with pytest.raises(ValueError, match="symbol"):
        baum_welch_train(h0, [[0, 3]])
    unit = uniform_params(2, 2, mode="unit-initial")
    with pytest.raises(ValueError, match="stochastic"):
        baum_welch_train(unit, [[0, 1]])


# ---------------------------------------------------------------------------
# parameter validation and round-trips


def test_params_validation():
    with pytest.raises(ValueError, match="sum to 1"):
        HmmParams(trans=[[0.5, 0.4], [0.5, 0.5]], emit=np.full((2, 2), 0.5), init=[0.5, 0.5])
    with pytest.raises(ValueError, match="non-negative"):
        HmmParams(trans=[[1.5, -0.5], [0.5, 0.5]], emit=np.full((2, 2), 0.5), init=[0.5, 0.5])
    with pytest.raises(ValueError, match="initial"):
        HmmParams(trans=np.eye(2), emit=np.full((2, 2), 0.5), init=[0.9, 0.9])
    with pytest.raises(ValueError, match="mode"):
        HmmParams(trans=np.eye(2), emit=np.full((2, 2), 0.5), init=[0.5, 0.5], mode="x")


def test_params_reject_non_finite_entries():
    good = {"trans": np.full((2, 2), 0.5), "emit": np.full((2, 2), 0.5), "init": [0.5, 0.5]}
    for field in good:
        for bad in (np.nan, np.inf):
            values = np.array(good[field], dtype=float)
            values.flat[0] = bad
            with pytest.raises(ValueError, match="finite and non-negative"):
                HmmParams(**(good | {field: values}))
    with pytest.raises(ValueError, match="finite and non-negative"):
        HmmParams(trans=[[np.nan, np.nan], [0.5, 0.5]], emit=good["emit"], init=good["init"])

def test_params_dict_round_trip():
    g = rng(50)
    h = _random_params(g, 2, 4)
    again = HmmParams.from_dict(h.to_dict())
    assert (again.trans == h.trans).all()
    assert (again.emit == h.emit).all()
    assert (again.init == h.init).all()
    assert again.mode == h.mode and again.labels == h.labels
    with pytest.raises(ValueError, match="declared k=3"):
        bad = h.to_dict() | {"k": 3}
        HmmParams.from_dict(bad)
