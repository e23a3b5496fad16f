"""Codon independence model: empirical codon tables, the closed-form
maximum-likelihood estimate under first-two-vs-third position
independence, goodness-of-fit statistics, and rank-one diagnostics of
the flattened codon distribution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .alphabet import encode

#: Codon to amino-acid map (three-letter identifiers, "*" for stop).
GENETIC_CODE = {
    "TTT": "Phe", "TTC": "Phe", "TTA": "Leu", "TTG": "Leu",
    "TCT": "Ser", "TCC": "Ser", "TCA": "Ser", "TCG": "Ser",
    "TAT": "Tyr", "TAC": "Tyr", "TAA": "*", "TAG": "*",
    "TGT": "Cys", "TGC": "Cys", "TGA": "*", "TGG": "Trp",
    "CTT": "Leu", "CTC": "Leu", "CTA": "Leu", "CTG": "Leu",
    "CCT": "Pro", "CCC": "Pro", "CCA": "Pro", "CCG": "Pro",
    "CAT": "His", "CAC": "His", "CAA": "Gln", "CAG": "Gln",
    "CGT": "Arg", "CGC": "Arg", "CGA": "Arg", "CGG": "Arg",
    "ATT": "Ile", "ATC": "Ile", "ATA": "Ile", "ATG": "Met",
    "ACT": "Thr", "ACC": "Thr", "ACA": "Thr", "ACG": "Thr",
    "AAT": "Asn", "AAC": "Asn", "AAA": "Lys", "AAG": "Lys",
    "AGT": "Ser", "AGC": "Ser", "AGA": "Arg", "AGG": "Arg",
    "GTT": "Val", "GTC": "Val", "GTA": "Val", "GTG": "Val",
    "GCT": "Ala", "GCC": "Ala", "GCA": "Ala", "GCG": "Ala",
    "GAT": "Asp", "GAC": "Asp", "GAA": "Glu", "GAG": "Glu",
    "GGT": "Gly", "GGC": "Gly", "GGA": "Gly", "GGG": "Gly",
}


def translate(codon: str) -> str:
    """Amino acid (or "*") coded by a codon."""
    try:
        return GENETIC_CODE[codon.upper()]
    except KeyError:
        raise ValueError(f"not a codon: {codon!r}") from None


# Degrees of freedom for the independence test: 63 free cells minus
# 15 + 3 free parameters.
INDEPENDENCE_DF = 45


@dataclass(frozen=True)
class CodonCounts:
    """4x4x4 table of codon occurrence counts, indexed A,C,G,T."""

    counts: np.ndarray

    def __post_init__(self):
        table = np.asarray(self.counts, dtype=np.int64)
        if table.shape != (4, 4, 4):
            raise ValueError(f"expected a 4x4x4 table, got shape {table.shape}")
        if (table < 0).any():
            raise ValueError("codon counts must be non-negative")
        table.setflags(write=False)
        object.__setattr__(self, "counts", table)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def frequency_table(self) -> np.ndarray:
        if self.total == 0:
            raise ValueError("empty codon table has no frequencies")
        return self.counts / self.total


@dataclass(frozen=True)
class IndependenceParams:
    """Distribution on the first two codon positions (``alpha``, 4x4)
    and on the third (``beta``, length 4)."""

    alpha: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        alpha = np.asarray(self.alpha, dtype=float)
        beta = np.asarray(self.beta, dtype=float)
        if alpha.shape != (4, 4) or beta.shape != (4,):
            raise ValueError("alpha must be 4x4 and beta length 4")
        if not (np.isfinite(alpha).all() and np.isfinite(beta).all()):
            raise ValueError("probabilities must be finite (not NaN or inf)")
        if (alpha < 0).any() or (beta < 0).any():
            raise ValueError("probabilities must be non-negative")
        for name, arr in (("alpha", alpha), ("beta", beta)):
            if abs(arr.sum() - 1.0) > 1e-9:
                raise ValueError(f"{name} must sum to 1, got {arr.sum()!r}")
        alpha.setflags(write=False)
        beta.setflags(write=False)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)

    def product_table(self) -> np.ndarray:
        """The rank-one table alpha[i,j] * beta[k]."""
        return self.alpha[:, :, None] * self.beta[None, None, :]


@dataclass(frozen=True)
class IndependenceReport:
    g2: float
    chi2: float
    df: int


@dataclass(frozen=True)
class SegreDiagnostics:
    """Rank-one diagnostics of the 16x4 flattening: both are zero
    (below 1e-12) exactly when the first two positions are independent
    of the third."""

    max_minor: float
    sigma2: float


def codon_counts_from_sequence(dna: str) -> CodonCounts:
    """Count non-overlapping codons read left to right.

    The sequence length must be divisible by 3 and use only A, C, G, T
    (case-insensitive).
    """
    if len(dna) % 3 != 0:
        raise ValueError(
            f"sequence length {len(dna)} is not divisible by 3"
        )
    c = encode(dna)
    counts = np.bincount(16 * c[0::3] + 4 * c[1::3] + c[2::3], minlength=64)
    return CodonCounts(counts.reshape(4, 4, 4))


def independence_mle(u: CodonCounts) -> IndependenceParams:
    """Closed-form maximizer of the independence-model likelihood: the
    marginal frequencies of the first-two and third positions."""
    m = u.total
    if m < 1:
        raise ValueError("cannot fit the independence model to zero codons")
    alpha = u.counts.sum(axis=2) / m
    beta = u.counts.sum(axis=(0, 1)) / m
    return IndependenceParams(alpha, beta)


def independence_test(u: CodonCounts) -> IndependenceReport:
    """Likelihood-ratio (G^2) and Pearson (chi^2) statistics against the
    fitted independence model.  Zero observed cells contribute 0 to G^2;
    chi^2 sums over cells with positive expected count.
    """
    m = u.total
    if m < 1:
        raise ValueError("cannot test independence with zero codons")
    params = independence_mle(u)
    expected = m * params.product_table()
    observed = u.counts.astype(float)

    pos = observed > 0
    g2 = 2.0 * float(
        np.sum(observed[pos] * np.log(observed[pos] / expected[pos]))
    )
    epos = expected > 0
    chi2 = float(np.sum((observed[epos] - expected[epos]) ** 2 / expected[epos]))
    return IndependenceReport(g2=g2, chi2=chi2, df=INDEPENDENCE_DF)


def segre_residual(p: np.ndarray) -> SegreDiagnostics:
    """Distance-from-rank-one diagnostics of a codon distribution.

    ``max_minor`` is the largest absolute 2x2 minor of the 16x4
    flattening; ``sigma2`` is its second singular value.  Singular
    values come from the flattening itself, not its 4x4 Gram matrix:
    squaring would put the noise floor of an exactly rank-one table near
    sqrt(eps) ~ 1e-9, far above the 1e-12 on-model contract.
    """
    table = np.asarray(p, dtype=float)
    if table.shape != (4, 4, 4):
        raise ValueError(f"expected a 4x4x4 table, got shape {table.shape}")
    if not np.isfinite(table).all():
        raise ValueError("probabilities must be finite (not NaN or inf)")
    if (table < 0).any():
        raise ValueError("probabilities must be non-negative")
    if abs(table.sum() - 1.0) > 1e-9:
        raise ValueError(f"table must sum to 1, got {table.sum()!r}")
    flat = table.reshape(16, 4)  # rows: first two positions; columns: third

    # minors[r1, r2, c1, c2]; r1 = r2 or c1 = c2 gives exactly zero
    minors = (
        flat[:, None, :, None] * flat[None, :, None, :]
        - flat[:, None, None, :] * flat[None, :, :, None]
    )
    max_minor = float(np.abs(minors).max())

    singular = np.linalg.svd(flat, compute_uv=False)
    return SegreDiagnostics(max_minor=max_minor, sigma2=float(singular[1]))
