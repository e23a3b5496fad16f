"""End-to-end conservation-probability pipeline.

From an aligned FASTA of putatively neutral sites (or a precomputed
distance matrix): estimate pairwise distances with the log-determinant
correction, build the neighbor-joining tree, derive per-edge
substitution parameters, compute the probability that a site is
identical across all taxa, raise it to the motif length, and scale by
genome length.  Also: exact motif search and pairwise site counting.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .alphabet import encode
from .evolution import SaturationError, all_same_probability, jc_distance
from .formats import emit_newick, parse_distance_matrix, read_fasta
from .treespace import DissimilarityMap, neighbor_join

#: 42-base element observed unchanged across ten vertebrate genomes;
#: the default query for motif search and the conservation probability.
CONSERVED_ELEMENT_42 = "TTTAATTGAAAGAAGTTAATTGAATGAAAATGATCAACTAAG"

#: Repeated 9-mer inside the element above.
CONSERVED_ELEMENT_MOTIF = "TTAATTGAA"

#: Approximate human genome length in bases.
DEFAULT_GENOME_LENGTH = 2.8e9

REPORT_SPEC_VERSION = "1.0"


@dataclass(frozen=True)
class AlignedFasta:
    """Equal-length records over A, C, G, T, N and the gap character, and
    their codes (``encode(seq, gaps=True)``), one row per taxon in ``taxa``."""

    records: tuple[tuple[str, str], ...]
    codes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        given = tuple(self.records)
        if not given:
            raise ValueError("alignment has no records")
        names = [name for name, _ in given]
        if len(set(names)) != len(names):
            raise ValueError("duplicate record names in alignment")
        width = len(given[0][1])
        rows = {}
        for name, seq in given:
            if len(seq) != width:
                raise ValueError(
                    f"record {name!r} has length {len(seq)}, expected {width}"
                )
            try:
                rows[name] = encode(seq, gaps=True)
            except ValueError as exc:
                raise ValueError(f"record {name!r}: {exc}") from None
        codes = np.array([rows[name] for name in sorted(rows)], dtype=np.uint8)
        codes.setflags(write=False)
        records = tuple((name, seq.upper()) for name, seq in given)
        object.__setattr__(self, "records", records)
        object.__setattr__(self, "codes", codes)

    @classmethod
    def from_text(cls, text: str) -> "AlignedFasta":
        return cls(records=tuple(read_fasta(text)))

    @property
    def taxa(self) -> tuple[str, ...]:
        return tuple(sorted(name for name, _ in self.records))

    @property
    def width(self) -> int:
        return len(self.records[0][1])

    def sequence(self, taxon: str) -> str:
        for name, seq in self.records:
            if name == taxon:
                return seq
        raise KeyError(f"no record named {taxon!r}")


def _site_counts(codes: np.ndarray, plain: np.ndarray, i: int):
    """(usable, differing) site counts of row ``i`` of an encoded
    alignment against each later row.  ``plain`` marks the plain-base
    cells of ``codes``."""
    usable = plain[i + 1:] & plain[i]
    differ = codes[i + 1:] != codes[i]
    differ &= usable
    return np.count_nonzero(usable, axis=1), np.count_nonzero(differ, axis=1)


def pairwise_site_differences(
    alignment: AlignedFasta, taxon1: str, taxon2: str
) -> tuple[int, int]:
    """(usable sites, differing sites) for one pair of records.

    A column is usable when both characters are plain bases; gap and N
    columns are dropped for this pair only.
    """
    row = {taxon: i for i, taxon in enumerate(alignment.taxa)}
    try:
        codes = alignment.codes[[row[taxon1], row[taxon2]]]
    except KeyError as exc:
        raise ValueError(f"no record named {exc.args[0]!r}") from None
    usable, differing = _site_counts(codes, codes < 4, 0)
    return int(usable[0]), int(differing[0])


def find_motif(sequence: str, motif: str) -> list[int]:
    """0-based start positions of every (possibly overlapping) exact
    occurrence of ``motif``."""
    if not motif:
        raise ValueError("motif is empty")
    seq = sequence.upper()
    motif = motif.upper()
    hits = []
    pos = seq.find(motif)
    while pos != -1:
        hits.append(pos)
        pos = seq.find(motif, pos + 1)
    return hits


@dataclass(frozen=True)
class PairwiseDistance:
    taxon_a: str
    taxon_b: str
    sites: int | None
    differences: int | None
    distance: float

    def to_dict(self) -> dict:
        return {
            "pair": [self.taxon_a, self.taxon_b],
            "n": self.sites,
            "k": self.differences,
            "distance": self.distance,
        }


@dataclass(frozen=True)
class PipelineConfig:
    """Input selection for :func:`run_pipeline`: exactly one of
    ``distances`` / ``alignment`` (file paths or raw text)."""

    distances: str | Path | None = None
    alignment: str | Path | None = None
    motif: str | None = None
    genome_length: float = DEFAULT_GENOME_LENGTH

    def __post_init__(self):
        if (self.distances is None) == (self.alignment is None):
            raise ValueError("supply exactly one of distances/alignment")
        if not 0 < self.genome_length < math.inf:  # also rejects NaN
            raise ValueError("genome length must be finite and positive")
        if self.motif is not None and not self.motif:
            raise ValueError("motif is empty")


@dataclass(frozen=True)
class PipelineReport:
    pairwise: tuple[PairwiseDistance, ...]
    newick: str
    p_same: float
    p_any: float
    motif: str | None
    motif_length: int
    p_motif: float
    genome_length: float
    genome_scale: float
    log10_p_motif: float
    log10_genome_scale: float
    motif_hits: tuple[tuple[str, int], ...] = field(default=())

    def to_dict(self) -> dict:
        return {
            "specVersion": REPORT_SPEC_VERSION,
            "pairwise": [p.to_dict() for p in self.pairwise],
            "newick": self.newick,
            "pSame": self.p_same,
            "pAny": self.p_any,
            "motif": self.motif,
            "motifLength": self.motif_length,
            "p42": self.p_motif,
            "log10P42": self.log10_p_motif,
            "genomeLength": self.genome_length,
            "genomeScale": self.genome_scale,
            "log10GenomeScale": self.log10_genome_scale,
            "motifHits": [
                {"taxon": taxon, "position": pos} for taxon, pos in self.motif_hits
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def to_text(self) -> str:
        lines = [
            f"taxa: {len({t for p in self.pairwise for t in (p.taxon_a, p.taxon_b)})}",
            f"tree: {self.newick}",
            f"P(all leaves share one fixed letter) = {self.p_same:.6f}",
            f"P(all leaves agree)                  = {self.p_any:.6f}",
            f"P(length-{self.motif_length} window unchanged)    = "
            f"{self.p_motif:.3e}  (log10 {self.log10_p_motif:.2f})",
            f"genome-scaled ({self.genome_length:.2e} sites)  = "
            f"{self.genome_scale:.3e}  (log10 {self.log10_genome_scale:.2f})",
        ]
        if self.motif is not None:
            lines.append(f"motif: {self.motif}")
            if self.motif_hits:
                lines.extend(
                    f"  hit: {taxon} @ {pos}" for taxon, pos in self.motif_hits
                )
            else:
                lines.append("  no hits")
        return "\n".join(lines) + "\n"


def _read_input(source: str | Path) -> str:
    if isinstance(source, Path):
        return source.read_text()
    text = str(source)
    # isfile returns False where Path.exists raises: on text too long for a file name
    if "\n" not in text and os.path.isfile(text):
        return Path(text).read_text()
    return text


def distances_from_alignment(alignment: AlignedFasta):
    """Pairwise corrected distances for all taxon pairs, in sorted
    order.  A pair with no finite estimate (saturated, or with no site
    where both hold a plain base) is reported by name."""
    taxa, codes = alignment.taxa, alignment.codes
    plain = codes < 4
    pairwise = []
    for i, a in enumerate(taxa):
        usable, differing = _site_counts(codes, plain, i)
        for b, n, k in zip(taxa[i + 1:], usable.tolist(), differing.tolist()):
            try:
                dist = jc_distance(n, k)
            except SaturationError as exc:
                raise SaturationError(f"pair ({a}, {b}) is saturated: {exc}") from None
            except ValueError as exc:
                raise ValueError(f"pair ({a}, {b}): {exc}") from None
            pairwise.append(
                PairwiseDistance(
                    taxon_a=a, taxon_b=b, sites=n, differences=k, distance=dist
                )
            )
    values = np.zeros((len(taxa), len(taxa)))
    rows, cols = np.triu_indices(len(taxa), 1)
    values[rows, cols] = values[cols, rows] = [p.distance for p in pairwise]
    return pairwise, DissimilarityMap(taxa=taxa, values=values)


def run_pipeline(config: PipelineConfig) -> PipelineReport:
    """Distances -> neighbor-joining tree -> per-edge parameters ->
    conservation probabilities, all deterministic.

    The tree is reported unrooted.  Probabilities are tracked in log10
    alongside the linear values; the motif-length power uses the motif
    given in the config (default length 42).
    """
    alignment = None
    if config.alignment is not None:
        alignment = AlignedFasta.from_text(_read_input(config.alignment))
        pairwise, dm = distances_from_alignment(alignment)
    else:
        dm = parse_distance_matrix(_read_input(config.distances))
        rows = dm.values.tolist()
        pairwise = [
            PairwiseDistance(
                taxon_a=a,
                taxon_b=b,
                sites=None,
                differences=None,
                distance=rows[i][j],
            )
            for i, a in enumerate(dm.taxa)
            for j, b in enumerate(dm.taxa[i + 1:], i + 1)
        ]

    tree = neighbor_join(dm)
    newick = emit_newick(tree)
    p_same, p_any = all_same_probability(tree)

    motif = config.motif.upper() if config.motif else None
    motif_length = len(motif) if motif else len(CONSERVED_ELEMENT_42)
    p_motif = p_any**motif_length
    log10_p_motif = motif_length * math.log10(p_any)
    genome_scale = config.genome_length * p_motif
    log10_genome_scale = math.log10(config.genome_length) + log10_p_motif

    motif_hits: list[tuple[str, int]] = []
    if motif and alignment is not None:
        for taxon in alignment.taxa:
            ungapped = alignment.sequence(taxon).replace("-", "")
            motif_hits.extend((taxon, pos) for pos in find_motif(ungapped, motif))

    return PipelineReport(
        pairwise=tuple(pairwise),
        newick=newick,
        p_same=p_same,
        p_any=p_any,
        motif=motif,
        motif_length=motif_length,
        p_motif=p_motif,
        genome_length=config.genome_length,
        genome_scale=genome_scale,
        log10_p_motif=log10_p_motif,
        log10_genome_scale=log10_genome_scale,
        motif_hits=tuple(motif_hits),
    )
