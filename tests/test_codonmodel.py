"""Codon counting, the independence MLE (against a numeric ascent
oracle), goodness-of-fit statistics, and rank-one diagnostics (against a
characteristic-polynomial bisection oracle)."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from phylokit.codonmodel import (
    GENETIC_CODE,
    INDEPENDENCE_DF,
    CodonCounts,
    IndependenceParams,
    codon_counts_from_sequence,
    fourfold_degenerate_prefixes,
    independence_mle,
    independence_test,
    segre_residual,
    translate,
)

from conftest import rng


def _random_counts(g, total):
    cells = g.integers(0, 64, size=total)
    table = np.zeros((4, 4, 4), dtype=np.int64)
    for c in cells:
        table[c // 16, (c // 4) % 4, c % 4] += 1
    return CodonCounts(table)


def _random_simplex(g, shape):
    raw = g.random(shape) + 0.05
    return raw / raw.sum()


# ---------------------------------------------------------------------------
# genetic code table


def test_genetic_code_has_64_codons_and_3_stops():
    assert len(GENETIC_CODE) == 64
    assert sum(1 for v in GENETIC_CODE.values() if v == "*") == 3
    assert translate("atg") == "Met"
    with pytest.raises(ValueError):
        translate("AXG")


def test_fourfold_degenerate_prefixes():
    assert fourfold_degenerate_prefixes() == frozenset(
        {"TC", "CT", "CC", "CG", "AC", "GT", "GC", "GG"}
    )


# ---------------------------------------------------------------------------
# counting


def test_counts_from_short_sequence():
    counts = codon_counts_from_sequence("ATGTAA")
    assert counts.total == 2
    assert counts.counts[0, 3, 2] == 1  # ATG
    assert counts.counts[3, 0, 0] == 1  # TAA


def test_counts_empty_sequence():
    counts = codon_counts_from_sequence("")
    assert counts.total == 0
    assert counts.counts.sum() == 0


def test_counts_bad_inputs():
    with pytest.raises(ValueError, match="divisible by 3"):
        codon_counts_from_sequence("ATGA")
    with pytest.raises(ValueError, match="position 4"):
        codon_counts_from_sequence("ATGAXA")


def test_counts_random_sequence_recount():
    g = rng(31)
    letters = "ACGT"
    seq = "".join(letters[i] for i in g.integers(0, 4, size=300))
    counts = codon_counts_from_sequence(seq)
    assert counts.total == 100
    # independent recount
    from collections import Counter

    tally = Counter(seq[i:i + 3] for i in range(0, 300, 3))
    for codon, n in tally.items():
        idx = tuple(letters.index(c) for c in codon)
        assert counts.counts[idx] == n


def _loop_codon_counts(dna: str) -> np.ndarray:
    """The per-codon counting loop the table and bincount replaced."""
    index = {c: i for i, c in enumerate("ACGT")}
    table = np.zeros((4, 4, 4), dtype=np.int64)
    seq = dna.upper()
    for start in range(0, len(seq), 3):
        i, j, k = (index[c] for c in seq[start:start + 3])
        table[i, j, k] += 1
    return table


def test_counts_equal_the_per_codon_loop_in_mixed_case():
    g = rng(1602)
    for length in range(0, 301, 3):
        seq = "".join(g.choice(list("ACGTacgt"), size=length))
        counts = codon_counts_from_sequence(seq).counts
        assert counts.dtype == np.int64
        assert counts.tolist() == _loop_codon_counts(seq).tolist(), seq


# ---------------------------------------------------------------------------
# the closed-form MLE


def test_mle_uniform_table():
    params = independence_mle(CodonCounts(np.ones((4, 4, 4), dtype=np.int64)))
    assert np.allclose(params.alpha, 1 / 16)
    assert np.allclose(params.beta, 1 / 4)


def test_mle_recovers_product_tables_exactly():
    alpha = np.arange(1, 17, dtype=float).reshape(4, 4)
    alpha /= alpha.sum()
    beta = np.array([0.1, 0.2, 0.3, 0.4])
    m = 13600
    table = (m * alpha[:, :, None] * beta[None, None, :]).round().astype(np.int64)
    assert table.sum() == m  # chosen so every cell is an exact integer
    params = independence_mle(CodonCounts(table))
    assert np.allclose(params.alpha, alpha, atol=1e-12)
    assert np.allclose(params.beta, beta, atol=1e-12)


def test_mle_reproduces_marginals_exactly():
    g = rng(32)
    for seed in range(10):
        u = _random_counts(g, 200 + seed)
        params = independence_mle(u)
        assert (params.alpha == u.counts.sum(axis=2) / u.total).all()
        assert (params.beta == u.counts.sum(axis=(0, 1)) / u.total).all()


@given(
    st.lists(st.integers(0, 9), min_size=64, max_size=64).filter(
        lambda cells: sum(cells) > 0
    )
)
def test_mle_marginal_property(cells):
    u = CodonCounts(np.array(cells, dtype=np.int64).reshape(4, 4, 4))
    params = independence_mle(u)
    assert (params.alpha == u.counts.sum(axis=2) / u.total).all()
    assert (params.beta == u.counts.sum(axis=(0, 1)) / u.total).all()
    assert params.alpha.sum() == pytest.approx(1.0, abs=1e-12)


def _ascent_mle(counts, iters=5000, eta=0.5):
    """Numeric maximization of sum(u * log(alpha x beta)) over the
    product of simplices by exponentiated-gradient ascent (no use of the
    closed form)."""
    a_marg = counts.sum(axis=2).astype(float)
    b_marg = counts.sum(axis=(0, 1)).astype(float)
    m = counts.sum()
    a = np.full((4, 4), 1.0 / 16.0)
    b = np.full(4, 0.25)
    for _ in range(iters):
        grad_a = a_marg / (m * a)
        a = a * np.exp(eta * (grad_a - (a * grad_a).sum()))
        a /= a.sum()
        grad_b = b_marg / (m * b)
        b = b * np.exp(eta * (grad_b - (b * grad_b).sum()))
        b /= b.sum()
    return a, b


def test_mle_matches_numeric_ascent_oracle():
    g = rng(33)
    table = _random_counts(g, 500 - 64).counts + 1  # strictly positive cells
    u = CodonCounts(table)
    assert u.total == 500
    params = independence_mle(u)
    a, b = _ascent_mle(u.counts)
    assert np.abs(params.alpha - a).max() < 1e-6
    assert np.abs(params.beta - b).max() < 1e-6


def test_mle_rejects_empty_table():
    with pytest.raises(ValueError):
        independence_mle(CodonCounts(np.zeros((4, 4, 4), dtype=np.int64)))


# ---------------------------------------------------------------------------
# goodness of fit


def test_statistics_vanish_on_product_table():
    alpha = np.full((4, 4), 1 / 16)
    beta = np.array([0.4, 0.3, 0.2, 0.1])
    table = (1600 * alpha[:, :, None] * beta[None, None, :]).round().astype(np.int64)
    report = independence_test(CodonCounts(table))
    assert report.g2 == pytest.approx(0.0, abs=1e-9)
    assert report.chi2 == pytest.approx(0.0, abs=1e-9)
    assert report.df == 45


def test_degrees_of_freedom_value():
    assert INDEPENDENCE_DF == 63 - 18 == 45


def test_g2_matches_two_pass_summation_oracle():
    g = rng(34)
    u = _random_counts(g, 700)
    report = independence_test(u)
    # pass 1: marginals with plain python loops
    m = u.total
    alpha = [[0.0] * 4 for _ in range(4)]
    beta = [0.0] * 4
    for i in range(4):
        for j in range(4):
            for k in range(4):
                alpha[i][j] += u.counts[i, j, k] / m
    for k in range(4):
        for i in range(4):
            for j in range(4):
                beta[k] += u.counts[i, j, k] / m
    # pass 2: the statistics
    g2 = chi2 = 0.0
    for i in range(4):
        for j in range(4):
            for k in range(4):
                observed = float(u.counts[i, j, k])
                expected = m * alpha[i][j] * beta[k]
                if observed > 0:
                    g2 += 2 * observed * math.log(observed / expected)
                if expected > 0:
                    chi2 += (observed - expected) ** 2 / expected
    assert report.g2 == pytest.approx(g2, abs=1e-9)
    assert report.chi2 == pytest.approx(chi2, abs=1e-9)


def test_statistics_are_nonnegative():
    g = rng(35)
    for seed in range(20):
        report = independence_test(_random_counts(g, 120))
        assert report.g2 >= -1e-12
        assert report.chi2 >= 0.0


# ---------------------------------------------------------------------------
# rank-one diagnostics


def test_rank_one_table_has_zero_diagnostics():
    g = rng(36)
    alpha = _random_simplex(g, (4, 4))
    beta = _random_simplex(g, 4)
    p = alpha[:, :, None] * beta[None, None, :]
    diag = segre_residual(p)
    assert diag.max_minor < 1e-12
    assert diag.sigma2 < 1e-12


def test_rank_two_mixture_has_positive_sigma2():
    g = rng(37)
    a1, b1 = _random_simplex(g, (4, 4)), _random_simplex(g, 4)
    a2, b2 = _random_simplex(g, (4, 4)), _random_simplex(g, 4)
    p = 0.5 * a1[:, :, None] * b1[None, None, :] + 0.5 * a2[:, :, None] * b2[None, None, :]
    diag = segre_residual(p)
    assert diag.sigma2 > 1e-4
    assert diag.max_minor > 1e-6


def _det4(m):
    """4x4 determinant by cofactor expansion (test-local)."""

    def det3(a):
        return (
            a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
            - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
            + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0])
        )

    total = 0.0
    for col in range(4):
        minor = [
            [m[r][c] for c in range(4) if c != col] for r in range(1, 4)
        ]
        total += (-1) ** col * m[0][col] * det3(minor)
    return total


def _bisection_sigma2(p, tol=1e-12):
    """Second singular value via sign changes of det(G - x I)."""
    flat = np.asarray(p, dtype=float).reshape(16, 4)
    gram = (flat.T @ flat).tolist()
    upper = sum(gram[i][i] for i in range(4)) + 1.0

    def charpoly(x):
        shifted = [
            [gram[r][c] - (x if r == c else 0.0) for c in range(4)]
            for r in range(4)
        ]
        return _det4(shifted)

    # log spacing resolves the small eigenvalues below the dominant one
    grid = np.concatenate(
        [[-1e-9], np.geomspace(1e-12, upper, 3000), np.linspace(1e-6, upper, 2000)]
    )
    grid = np.unique(grid)
    values = [charpoly(x) for x in grid]
    roots = []
    for lo, hi, flo, fhi in zip(grid, grid[1:], values, values[1:]):
        if flo == 0.0:
            roots.append(lo)
            continue
        if flo * fhi < 0:
            a, b, fa = lo, hi, flo
            for _ in range(200):
                mid = 0.5 * (a + b)
                fm = charpoly(mid)
                if fa * fm <= 0:
                    b = mid
                else:
                    a, fa = mid, fm
                if b - a < tol:
                    break
            roots.append(0.5 * (a + b))
    assert len(roots) == 4, f"expected 4 eigenvalues, bracketed {len(roots)}"
    return math.sqrt(max(sorted(roots)[-2], 0.0))


def test_sigma2_matches_bisection_oracle():
    g = rng(38)
    for _ in range(5):
        raw = g.random((4, 4, 4)) + 0.01
        p = raw / raw.sum()
        diag = segre_residual(p)
        assert diag.sigma2 == pytest.approx(_bisection_sigma2(p), abs=1e-8)


def test_sigma2_and_minors_vanish_together():
    g = rng(39)
    for trial in range(1000):
        if trial % 2 == 0:
            alpha = _random_simplex(g, (4, 4))
            beta = _random_simplex(g, 4)
            p = alpha[:, :, None] * beta[None, None, :]
        else:
            a1, b1 = _random_simplex(g, (4, 4)), _random_simplex(g, 4)
            a2, b2 = _random_simplex(g, (4, 4)), _random_simplex(g, 4)
            p = 0.5 * (a1[:, :, None] * b1[None, None, :] + a2[:, :, None] * b2[None, None, :])
        diag = segre_residual(p)
        if diag.sigma2 <= 1e-10:
            assert diag.max_minor <= 1e-10
        if diag.max_minor <= 1e-12:
            assert diag.sigma2 <= 1e-10


def test_segre_rejects_bad_tables():
    with pytest.raises(ValueError):
        segre_residual(np.full((4, 4, 4), 1.0))  # not normalized
    bad = np.full((4, 4, 4), 1 / 64.0)
    bad[0, 0, 0] = -bad[0, 0, 0]
    with pytest.raises(ValueError):
        segre_residual(bad)


def test_params_validation():
    with pytest.raises(ValueError):
        IndependenceParams(alpha=np.full((4, 4), 1 / 16), beta=np.array([0.5, 0.5, 0.5, 0.5]))
    with pytest.raises(ValueError):
        CodonCounts(np.full((4, 4, 4), -1))
