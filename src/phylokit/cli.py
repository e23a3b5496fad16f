"""Command-line interface.

Subcommands: pipeline, dist, nj, align, hmm, codon, tree, motif.
Each handler returns its result as text and ``main`` writes it once, to
the ``--out`` file or to stdout.  JSON output is strict: a non-finite
float is written as ``null``.  Exit code 0 on success, 2 on any input
problem (bad files, malformed formats, violated preconditions).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import codonmodel, hmm, pairhmm, pipeline, treespace
from .alphabet import NUCLEOTIDES
from .formats import (
    emit_newick,
    format_distance_matrix,
    hmm_params_from_json,
    hmm_params_to_json,
    pair_params_from_json,
    parse_distance_matrix,
    parse_m_dissimilarity,
    read_fasta,
)
from .pipeline import AlignedFasta, PipelineConfig


def _json(value) -> str:
    """Strict JSON text of ``value``, each non-finite float written as null."""

    def finite(v):
        if isinstance(v, float):
            return v if math.isfinite(v) else None
        if isinstance(v, dict):
            return {key: finite(item) for key, item in v.items()}
        return [finite(item) for item in v] if isinstance(v, (list, tuple)) else v

    return json.dumps(finite(value), allow_nan=False)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_pipeline(args) -> str:
    config = PipelineConfig(
        distances=Path(args.distances) if args.distances else None,
        alignment=Path(args.alignment) if args.alignment else None,
        motif=args.motif,
        genome_length=args.genome_length,
    )
    report = pipeline.run_pipeline(config)
    if args.out:  # the JSON report goes to the file, the summary to stdout
        sys.stdout.write(report.to_text())
    return report.to_json()


def _cmd_dist(args) -> str:
    alignment = AlignedFasta.from_text(Path(args.alignment).read_text())
    _, dm = pipeline.distances_from_alignment(alignment)
    return format_distance_matrix(dm, style=args.format)


def _cmd_nj(args) -> str:
    dm = parse_distance_matrix(Path(args.distances).read_text())
    return emit_newick(treespace.neighbor_join(dm))


def _read_pair_sequences(args) -> tuple[str, str]:
    if args.fasta:
        records = read_fasta(Path(args.fasta).read_text())
        if len(records) != 2:
            raise ValueError(f"need exactly 2 records, found {len(records)}")
        return records[0][1], records[1][1]
    if args.seq1 and args.seq2:
        return args.seq1, args.seq2
    raise ValueError("supply --fasta or both --seq1 and --seq2")


def _cmd_align(args) -> str:
    if args.align_command == "enumerate":
        words = pairhmm.enumerate_alignments(args.n, args.m, cap=args.cap)
        return _json({"count": len(words), "alignments": words})

    s1, s2 = _read_pair_sequences(args)
    if args.align_command == "polygon":
        return _json(pairhmm.parametric_polygon(s1, s2).to_dict())
    if args.align_command == "score":
        scheme = pairhmm.ScoringScheme(mismatch=args.mis, gap=args.gap)
        best, key = pairhmm.score_alignment_basic(scheme, s1, s2), "score"
    else:
        params = pair_params_from_json(Path(args.params).read_text())
        if args.align_command == "prob":
            value, log_value = pairhmm._probabilities(params, s1, s2)  # one sweep for both
            return _json({"probability": value, "logProbability": log_value})
        best, key = pairhmm.viterbi_alignment(params, s1, s2), "logScore"
    gapped = pairhmm.format_alignment(best.word, s1.upper(), s2.upper())
    return _json({"alignment": best.word, key: best.score}) + "\n" + gapped


def _encode_observations(lines: list[str], alphabet: str) -> list[list[int]]:
    index = {c: i for i, c in enumerate(alphabet)}
    out = []
    for lineno, line in enumerate(lines, 1):
        try:
            out.append([index[c] for c in line])
        except KeyError as exc:
            raise ValueError(
                f"symbol {exc.args[0]!r} on line {lineno} is not in the "
                f"alphabet {alphabet!r}"
            ) from None
    return out


def _cmd_hmm(args) -> str:
    params = hmm_params_from_json(Path(args.params).read_text())
    lines = [
        line.strip()
        for line in Path(args.observations).read_text().splitlines()
        if line.strip()
    ]
    if not lines:
        raise ValueError("no observations found")
    if not args.alphabet and params.l > 10:
        raise ValueError(
            f"emission width {params.l} exceeds the 10 digits: give --alphabet"
        )
    alphabet = args.alphabet or (NUCLEOTIDES if params.l == 4 else "0123456789"[:params.l])
    if len(alphabet) != params.l:
        raise ValueError(
            f"alphabet {alphabet!r} does not match emission width {params.l}"
        )
    if len(set(alphabet)) != len(alphabet):
        raise ValueError(f"alphabet {alphabet!r} repeats a symbol")
    encoded = _encode_observations(lines, alphabet)

    if args.hmm_command == "forward":
        log_ps = [hmm.log_forward(params, obs) for obs in encoded]
        rows = [
            {"observation": s, "probability": float(np.exp(lp)), "logProbability": lp}
            for s, lp in zip(lines, log_ps)
        ]
        return _json(rows)
    if args.hmm_command == "viterbi":
        rows = []
        for line, obs in zip(lines, encoded):
            expl = hmm.viterbi_explanation(params, obs)
            rows.append(
                {"observation": line, "path": expl.path, "logScore": expl.log_score}
            )
        return _json(rows)
    trained, trace = hmm.baum_welch_train(
        params, encoded, max_iters=args.max_iters, tol=args.tol
    )
    print(
        _json({"iterations": len(trace) - 1, "logLikelihood": trace}),
        file=sys.stderr,
    )
    return hmm_params_to_json(trained)


def _cmd_codon(args) -> str:
    records = read_fasta(Path(args.fasta).read_text())
    table = np.zeros((4, 4, 4), dtype=np.int64)
    for name, seq in records:
        try:
            table += codonmodel.codon_counts_from_sequence(seq).counts
        except ValueError as exc:
            raise ValueError(f"record {name!r}: {exc}") from None
    counts = codonmodel.CodonCounts(table)
    report = codonmodel.independence_test(counts)
    diag = codonmodel.segre_residual(counts.frequency_table())
    return _json(
        {
            "codons": counts.total,
            "g2": report.g2,
            "chi2": report.chi2,
            "df": report.df,
            "sigma2": diag.sigma2,
            "maxMinor": diag.max_minor,
        }
    )


def _cmd_tree(args) -> str:
    if args.tree_command == "fourpoint":
        dm = parse_distance_matrix(Path(args.distances).read_text())
        verdict = treespace.check_four_point(dm)
        metric = treespace.check_metric(dm)
        return _json(
            {
                "isTreeMetric": bool(verdict) and bool(metric),
                "fourPoint": bool(verdict),
                "fourPointViolation": verdict.violation,
                "metric": bool(metric),
                "metricViolation": metric.violation,
            }
        )
    md = parse_m_dissimilarity(Path(args.input).read_text())
    if args.tree_command == "gr36":
        return _json({"residuals": list(treespace.gr36_residuals(md))})
    verdict = treespace.check_m_tree(md)
    return _json(
        {
            "isMTree": bool(verdict),
            "vacuous": verdict.vacuous,
            "witness": verdict.witness,
        }
    )


def _cmd_motif(args) -> str:
    records = read_fasta(Path(args.fasta).read_text())
    motif = args.motif
    hits = [
        {"taxon": name, "positions": pipeline.find_motif(seq.replace("-", ""), motif)}
        for name, seq in records
    ]
    return _json({"motif": motif, "hits": hits})


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phylokit",
        description="Phylogenomic toolkit: distances, trees, alignment, "
        "HMM decoding, codon tests, conservation probabilities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # option groups shared by several leaf commands, each declared once
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", help="write the result to this file instead of stdout")
    pair = argparse.ArgumentParser(add_help=False)
    pair.add_argument("--seq1")
    pair.add_argument("--seq2")
    pair.add_argument("--fasta", help="two-record FASTA instead of --seq1/--seq2")
    hmm_input = argparse.ArgumentParser(add_help=False)
    hmm_input.add_argument("--params", required=True, help="HMM parameter JSON")
    hmm_input.add_argument(
        "--observations", required=True, help="text file, one observation per line"
    )
    hmm_input.add_argument(
        "--alphabet", help="observation alphabet (default ACGT when l=4, else digits)"
    )

    def leaf(subparsers, name, handler, *groups, **kwargs):
        p = subparsers.add_parser(name, parents=[*groups, out], **kwargs)
        p.set_defaults(handler=handler)
        return p

    p = leaf(sub, "pipeline", _cmd_pipeline,
             help="distances -> tree -> conservation probability")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--distances", help="distance matrix (PHYLIP square or JSON)")
    src.add_argument("--alignment", help="aligned FASTA of neutral sites")
    p.add_argument("--motif", help="query motif (e.g. the conserved 42-mer)")
    p.add_argument(
        "--genome-length",
        type=float,
        default=pipeline.DEFAULT_GENOME_LENGTH,
        help="genome length used for the genome-scale estimate",
    )

    p = leaf(sub, "dist", _cmd_dist,
             help="pairwise corrected distances from an alignment")
    p.add_argument("--alignment", required=True)
    p.add_argument("--format", choices=("phylip", "json"), default="phylip")

    p = sub.add_parser("nj", help="distance-based tree building")
    nj_sub = p.add_subparsers(dest="nj_command", required=True)
    b = leaf(nj_sub, "build", _cmd_nj, help="neighbor-joining tree from a matrix")
    b.add_argument("--distances", required=True)

    p = sub.add_parser("align", help="pairwise alignment operations")
    align_sub = p.add_subparsers(dest="align_command", required=True)
    for name in ("prob", "viterbi"):
        leaf(align_sub, name, _cmd_align, pair).add_argument(
            "--params", required=True, help="pair-HMM parameter JSON"
        )
    a = leaf(align_sub, "score", _cmd_align, pair)
    a.add_argument("--mis", type=float, required=True)
    a.add_argument("--gap", type=float, required=True)
    leaf(align_sub, "polygon", _cmd_align, pair)
    e = leaf(align_sub, "enumerate", _cmd_align)
    e.add_argument("--n", type=int, required=True)
    e.add_argument("--m", type=int, required=True)
    e.add_argument("--cap", type=int, default=pairhmm.ENUMERATION_CAP)

    p = sub.add_parser("hmm", help="hidden Markov model operations")
    hmm_sub = p.add_subparsers(dest="hmm_command", required=True)
    leaf(hmm_sub, "forward", _cmd_hmm, hmm_input)
    leaf(hmm_sub, "viterbi", _cmd_hmm, hmm_input)
    h = leaf(hmm_sub, "train", _cmd_hmm, hmm_input)
    h.add_argument("--max-iters", type=int, default=100)
    h.add_argument("--tol", type=float, default=1e-8)

    p = sub.add_parser("codon", help="codon-position independence diagnostics")
    codon_sub = p.add_subparsers(dest="codon_command", required=True)
    leaf(codon_sub, "test", _cmd_codon).add_argument("--fasta", required=True)

    p = sub.add_parser("tree", help="tree-metric diagnostics")
    tree_sub = p.add_subparsers(dest="tree_command", required=True)
    leaf(tree_sub, "fourpoint", _cmd_tree).add_argument("--distances", required=True)
    for name, what in (
        ("mtree", "m-dissimilarity JSON"),
        ("gr36", "3-dissimilarity JSON on six taxa"),
    ):
        leaf(tree_sub, name, _cmd_tree).add_argument("--input", required=True, help=what)

    p = sub.add_parser("motif", help="exact motif search")
    motif_sub = p.add_subparsers(dest="motif_command", required=True)
    m = leaf(motif_sub, "find", _cmd_motif)
    m.add_argument("--fasta", required=True)
    m.add_argument(
        "--motif",
        default=pipeline.CONSERVED_ELEMENT_42,
        help="query (default: the conserved 42-mer)",
    )

    return parser


# built on the first call of main, not at import
_shared_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _shared_parser().parse_args(argv)
    # look the handler up at call time, so the shared parser holds no
    # stale reference to a replaced module attribute
    handler = globals()[args.handler.__name__]
    try:
        text = handler(args)
        text += "" if text.endswith("\n") else "\n"
        if args.out:
            Path(args.out).write_text(text)
        else:
            sys.stdout.write(text)
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RecursionError, MemoryError) as exc:
        # input too deep or too large for this process, still exit 2
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
