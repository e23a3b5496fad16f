"""Homogeneous hidden Markov models: forward likelihood, max-plus
decoding of the best hidden path, and expectation-maximization training.

Two initial-weight conventions are supported.  In ``"stochastic"`` mode
the initial vector is a probability distribution and the model sums to 1
over all observation strings of a given length.  In ``"unit-initial"``
mode every state gets initial weight 1, so the same sum equals the
number of hidden states; this is the convention under which the model
polynomial is a sum of k^n monomials with no initial-distribution
factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .semirings import ChainSpec, LogSemiring, MaxPlusSemiring, evaluate_chain

MODES = ("stochastic", "unit-initial")

_ROW_TOL = 1e-9


@dataclass(frozen=True)
class HmmParams:
    """Transition matrix ``trans`` (k x k), emission matrix ``emit``
    (k x l), initial weights ``init`` (length k) and the mode that fixes
    their normalization.  ``labels`` names the hidden states; their
    alphabetical order is the tie-breaking order for decoding.
    """

    trans: np.ndarray
    emit: np.ndarray
    init: np.ndarray
    mode: str = "stochastic"
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        trans = np.asarray(self.trans, dtype=float)
        emit = np.asarray(self.emit, dtype=float)
        if trans.ndim != 2 or trans.shape[0] != trans.shape[1]:
            raise ValueError(f"transition table must be square, got {trans.shape}")
        k = trans.shape[0]
        if emit.ndim != 2 or emit.shape[0] != k:
            raise ValueError(
                f"emission table must have {k} rows, got shape {emit.shape}"
            )
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.init is not None:
            init = np.asarray(self.init, dtype=float)
        elif self.mode == "unit-initial":
            init = np.ones(k)
        else:
            init = np.full(k, 1.0 / k)
        if init.shape != (k,):
            raise ValueError(f"initial vector must have length {k}")
        for arr in (trans, emit, init):
            if not (np.isfinite(arr) & (arr >= 0)).all():
                raise ValueError("parameters must be finite and non-negative")
        if np.abs(trans.sum(axis=1) - 1.0).max() > _ROW_TOL:
            raise ValueError("transition rows must sum to 1")
        if np.abs(emit.sum(axis=1) - 1.0).max() > _ROW_TOL:
            raise ValueError("emission rows must sum to 1")
        if self.mode == "stochastic":
            if abs(init.sum() - 1.0) > _ROW_TOL:
                raise ValueError("stochastic mode needs initial weights summing to 1")
        else:
            if np.abs(init - 1.0).max() > _ROW_TOL:
                raise ValueError("unit-initial mode needs all initial weights equal to 1")
        labels = self.labels
        if labels is None:
            labels = tuple(str(i) for i in range(k))
        elif not isinstance(labels, (list, tuple)) or not all(
            isinstance(label, str) for label in labels
        ):
            raise ValueError("state labels must be a list of strings")
        elif len(labels) != k:
            raise ValueError(f"expected {k} state labels")
        elif len(set(labels)) != k:
            raise ValueError("state labels must be distinct")
        for arr in (trans, emit, init):
            arr.setflags(write=False)
        object.__setattr__(self, "trans", trans)
        object.__setattr__(self, "emit", emit)
        object.__setattr__(self, "init", init)
        object.__setattr__(self, "labels", tuple(labels))

    @property
    def k(self) -> int:
        return self.trans.shape[0]

    @property
    def l(self) -> int:
        return self.emit.shape[1]

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "l": self.l,
            "S": self.trans.tolist(),
            "T": self.emit.tolist(),
            "init": self.init.tolist(),
            "mode": self.mode,
            "labels": list(self.labels),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "HmmParams":
        if not isinstance(data, dict):
            raise ValueError("HMM parameters must be a JSON object")
        missing = [key for key in ("S", "T") if key not in data]
        if missing:
            raise ValueError(f"HMM parameters need S and T: missing {missing[0]!r}")
        params = cls(
            trans=np.array(data["S"], dtype=float),
            emit=np.array(data["T"], dtype=float),
            init=np.array(data["init"], dtype=float) if "init" in data else None,
            mode=data.get("mode", "stochastic"),
            labels=data.get("labels"),
        )
        for name in ("k", "l"):
            if name in data and data[name] != getattr(params, name):
                raise ValueError(
                    f"declared {name}={data[name]} does not match tables"
                )
        return params


@dataclass(frozen=True)
class Explanation:
    """Hidden-state path decoded for one observation, with the log of
    its single path term."""

    states: tuple[str, ...]
    log_score: float

    @property
    def path(self) -> str:
        return "".join(self.states)


def _check_observation(h: HmmParams, obs) -> np.ndarray:
    arr = np.asarray(obs, dtype=np.int64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("observation must be a nonempty symbol sequence")
    if arr.min() < 0 or arr.max() >= h.l:
        bad = int(arr[(arr < 0) | (arr >= h.l)][0])
        raise ValueError(f"symbol {bad} outside alphabet of size {h.l}")
    return arr


def _log_chain(h: HmmParams, sigma: np.ndarray) -> ChainSpec:
    """Log weights of the chain of hidden paths behind ``sigma``."""
    with np.errstate(divide="ignore"):
        log_trans, log_emit, log_init = map(np.log, (h.trans, h.emit, h.init))
    initial = tuple(log_init + log_emit[:, sigma[0]])
    steps = log_trans[None] + log_emit[:, sigma[1:]].T[:, None, :]
    return ChainSpec(initial=initial, steps=steps, labels=h.labels)


def log_forward(h: HmmParams, obs) -> float:
    """log of the total probability of the observation over all k^n hidden
    paths, folded in log weights, so it is safe far below underflow."""
    sigma = _check_observation(h, obs)
    return evaluate_chain(_log_chain(h, sigma), LogSemiring).value


def forward_probability(h: HmmParams, obs) -> float:
    """Probability of the observation under the model (sum over all
    hidden paths of the path term)."""
    return float(np.exp(log_forward(h, obs)))


def viterbi_explanation(h: HmmParams, obs) -> Explanation:
    """Best hidden path: the arg-max of the log path term, ties broken
    by the alphabetically smallest state-label sequence."""
    sigma = _check_observation(h, obs)
    result = evaluate_chain(_log_chain(h, sigma), MaxPlusSemiring)
    if result.value == float("-inf"):
        raise ValueError("every hidden path has zero probability")
    return Explanation(states=result.path, log_score=float(result.value))


def _forward(h: HmmParams, factors: np.ndarray, counts: list[int]):
    """Scaled forward recursion over a packed batch of observations, for
    Baum-Welch alone, which needs the per-position tables.

    The batch is sorted longest first and stored position-major:
    position t holds ``counts[t]`` rows, one per sequence still running,
    in sequence order, and ``factors[r, j]`` is the emission factor of
    state j in row r.  Returns the normalized forward table (same shape)
    and the per-row scales, whose logs sum to the log-likelihood.  A zero
    scale marks a zero-probability prefix; that sequence's later rows are
    nan.
    """
    alpha = np.empty_like(factors)
    scales = np.empty((len(factors), 1))
    prev = start = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        for t, n in enumerate(counts):
            a, s = alpha[start : start + n], scales[start : start + n]
            if t == 0:
                np.multiply(h.init, factors[:n], out=a)
            else:
                np.matmul(alpha[prev : prev + n], h.trans, out=a)
                a *= factors[start : start + n]
            np.add.reduce(a, 1, keepdims=True, out=s)
            np.divide(a, s, out=a)
            prev, start = start, start + n
    return alpha, scales[:, 0]


def _pack(sigmas: list) -> tuple[np.ndarray, list[int], np.ndarray, np.ndarray]:
    """Observations packed as :func:`_forward` reads them: the symbol of
    every row, the rows per position, for each row past position 0 the
    row of the same sequence one position earlier, and the index in
    ``sigmas`` of the sequence behind each row of a position (longest
    first)."""
    lengths = np.array([len(s) for s in sigmas])
    order = np.argsort(-lengths, kind="stable")
    counts = len(lengths) - np.searchsorted(
        np.sort(lengths), np.arange(lengths.max()), side="right"
    )
    offsets = np.concatenate(([0], np.cumsum(counts)))
    rows = np.concatenate(
        [offsets[: lengths[s]] + r for r, s in enumerate(order)]
    )
    obs = np.empty(offsets[-1], dtype=np.int64)
    obs[rows] = np.concatenate([sigmas[s] for s in order])
    later = np.arange(counts[0], offsets[-1])
    position = np.repeat(np.arange(len(counts)), counts)[counts[0] :]
    return obs, counts.tolist(), later - counts[position - 1], order


def _backward(h: HmmParams, weights: np.ndarray, counts: list[int]) -> np.ndarray:
    """Scaled backward table of a packed batch; each sequence's pass
    starts at 1 on its own last position.

    ``weights`` are the emission factors already divided by their row's
    forward scale, one array operation for the whole table, so each
    position is one multiply into a buffer and one matmul.  The caller
    checks first that no scale is zero; a weight is then at most
    1 / its scale.
    """
    beta = np.ones_like(weights)
    buf = np.empty((counts[0], h.k))
    trans_t = h.trans.T
    stop = len(weights)
    m = 0  # rows at the next position, which start at ``stop``
    for n in reversed(counts):
        if m:
            nxt, tmp = slice(stop, stop + m), buf[:m]
            np.multiply(weights[nxt], beta[nxt], out=tmp)
            np.matmul(tmp, trans_t, out=beta[stop - n : stop - n + m])
        stop, m = stop - n, n
    return beta


def _zero_probability_error(counts, order, scales) -> ValueError:
    """Name the first observation in ``data`` order that has a zero
    scale, and the position where its prefix probability hits zero.
    Each such sequence has one zero scale; its later rows are nan."""
    offsets = np.cumsum([0] + counts)
    rows = np.flatnonzero(scales == 0.0)
    position = np.searchsorted(offsets, rows, side="right") - 1
    seqs = order[rows - offsets[position]]
    first = seqs.argmin()
    return ValueError(
        f"observation {seqs[first]} has zero probability under current "
        f"model: its prefix probability is zero at position {position[first]} "
        "(both indices count from 0)"
    )


def _normalized_rows(counts: np.ndarray, old: np.ndarray) -> np.ndarray:
    """Expected counts divided by their row sums, the expected visits of
    each state; a state with no visit keeps its row of ``old``."""
    total = counts.sum(axis=1, keepdims=True)
    return np.divide(counts, total, out=old.copy(), where=total > 0)


def baum_welch_train(
    h0: HmmParams,
    data: list,
    max_iters: int = 100,
    tol: float = 1e-8,
) -> tuple[HmmParams, list[float]]:
    """Expectation-maximization for HMM parameters.

    Returns the trained parameters and the per-iteration log-likelihood
    trace (first entry scores ``h0``, last scores the returned
    parameters).  The trace is non-decreasing up to roundoff; training
    stops after ``max_iters`` updates or when the improvement drops
    below ``tol``.  States whose expected visit count is zero keep their
    previous rows.
    """
    if h0.mode != "stochastic":
        raise ValueError("training requires a stochastic-mode model")
    if not data:
        raise ValueError("training data is empty")
    if max_iters < 0:
        raise ValueError(f"max_iters must be non-negative, got {max_iters}")
    sigmas = [_check_observation(h0, obs) for obs in data]
    obs, counts, prev, order = _pack(sigmas)
    onehot = (obs[:, None] == np.arange(h0.l)).astype(float)
    firsts = counts[0]  # rows of position 0, one per sequence

    params = h0
    trace: list[float] = []
    for it in range(max_iters + 1):
        factors = params.emit.T[obs]
        alpha, scales = _forward(params, factors, counts)
        if (scales == 0.0).any():
            raise _zero_probability_error(counts, order, scales)
        trace.append(float(np.log(scales).sum()))
        if it == max_iters or (len(trace) >= 2 and trace[-1] - trace[-2] < tol):
            return params, trace
        weights = factors / scales[:, None]
        beta = _backward(params, weights, counts)
        gamma = alpha * beta
        gamma /= gamma.sum(axis=1, keepdims=True)
        after = weights[firsts:] * beta[firsts:]
        init_acc = gamma[:firsts].sum(axis=0)
        params = HmmParams(
            trans=_normalized_rows(params.trans * (alpha[prev].T @ after), params.trans),
            emit=_normalized_rows(gamma.T @ onehot, params.emit),
            init=init_acc / init_acc.sum(),
            mode="stochastic",
            labels=params.labels,
        )
