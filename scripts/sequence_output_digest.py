#!/usr/bin/env python3
"""Print one sha256 over the outputs of every sequence consumer on fixed
random inputs, so two versions of the package can be shown to give
identical results.

Covers 200 random pair cases (some in lowercase) through the pair-HMM
operations, 200 codon tables, the pipeline JSON on the bundled matrix
and on 20 simulated alignments with N, gaps and lowercase, pairwise site
counts, leaf-pattern probabilities and simulated leaf sequences.  Only
valid inputs are used: error texts are not part of the digest.

Run it as ``PYTHONPATH=src python scripts/sequence_output_digest.py``;
``--verbose`` also prints one digest per section.
"""

import argparse
import hashlib
import warnings

import numpy as np

from phylokit import codonmodel, evolution, pairhmm, pipeline
from phylokit.formats import bundled_reference_tree, read_bundled

LETTERS = "ACGT"


def _random_seq(rng, length: int, lower_share: float) -> str:
    seq = "".join(rng.choice(list(LETTERS), size=length))
    lower = rng.random(length) < lower_share
    return "".join(c.lower() if low else c for c, low in zip(seq, lower))


def pair_cases(rng):
    for case in range(200):
        n, m = rng.integers(1, 25, size=2)
        lower_share = 0.5 if case % 3 == 0 else 0.0
        s1, s2 = _random_seq(rng, n, lower_share), _random_seq(rng, m, lower_share)
        params = pairhmm.PairHmmParams(
            trans=rng.random((3, 3)),
            emit_match=rng.random((4, 4)),
            emit_insert=rng.random(4),
            emit_delete=rng.random(4),
        )
        best = pairhmm.viterbi_alignment(params, s1, s2)
        scheme = pairhmm.ScoringScheme(*rng.integers(0, 4, size=2) / 2)
        yield repr((
            pairhmm.pair_probability(params, s1, s2),
            pairhmm.log_pair_probability(params, s1, s2),
            best,
            pairhmm.alignment_monomial(params, best.word, s1, s2),
            pairhmm.log_alignment_monomial(params, best.word, s1, s2),
            pairhmm.score_alignment_basic(scheme, s1, s2),
            pairhmm.parametric_polygon(s1, s2).to_dict(),
        ))


def codon_tables(rng):
    for case in range(200):
        length = 3 * int(rng.integers(0, 101))
        seq = _random_seq(rng, length, 0.3 if case % 2 else 0.0)
        yield repr(codonmodel.codon_counts_from_sequence(seq).counts.tolist())


def _simulated_alignment(rng, tree, seed: int) -> str:
    seqs = evolution.simulate_leaf_sequences(tree, int(rng.integers(200, 800)), seed)
    lines = []
    for name in sorted(seqs):
        chars = np.array(list(seqs[name]))
        u = rng.random(chars.size)
        chars[u < 0.03] = "N"
        chars[(u >= 0.03) & (u < 0.05)] = "n"
        chars[(u >= 0.05) & (u < 0.10)] = "-"
        lower = rng.random(chars.size) < 0.2
        chars[lower] = np.char.lower(chars[lower])
        lines += [f">{name}", "".join(chars)]
    return "\n".join(lines) + "\n"


def pipeline_reports(rng):
    yield pipeline.run_pipeline(
        pipeline.PipelineConfig(distances=read_bundled("vertebrates10.phy"))
    ).to_json()
    tree = bundled_reference_tree()
    for seed in range(20):
        text = _simulated_alignment(rng, tree, seed)
        alignment = pipeline.AlignedFasta.from_text(text)
        a, b = alignment.taxa[:2]
        yield repr(pipeline.pairwise_site_differences(alignment, a, b))
        config = pipeline.PipelineConfig(alignment=text, motif="acg" if seed % 2 else None)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                out = pipeline.run_pipeline(config).to_json()
            except ValueError as exc:
                out = f"{type(exc).__name__}: {exc}"
        yield out + repr([str(w.message) for w in caught])


def tree_outputs(rng):
    tree = bundled_reference_tree()
    for seed in range(10):
        seqs = evolution.simulate_leaf_sequences(tree, 500, seed)
        yield repr(sorted(seqs.items()))
        pattern = {t: str(rng.choice(list(LETTERS + LETTERS.lower()))) for t in tree.taxa}
        yield repr(evolution.pattern_probability(tree, pattern))


SECTIONS = {
    "pairs": pair_cases,
    "codons": codon_tables,
    "pipeline": pipeline_reports,
    "trees": tree_outputs,
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=16)
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args()
    total = hashlib.sha256()
    for index, (name, section) in enumerate(SECTIONS.items()):
        digest = hashlib.sha256()
        for item in section(np.random.default_rng([args.seed, index])):
            digest.update(item.encode() + b"\0")
        total.update(digest.digest())
        if args.verbose:
            print(f"{name}: {digest.hexdigest()}")
    print(total.hexdigest())


if __name__ == "__main__":
    main()
