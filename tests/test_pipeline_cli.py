"""Site counting, motif search, the end-to-end conservation pipeline,
and the command-line surface."""

import itertools
import json
import math

import pytest

from phylokit.cli import main
from phylokit.formats import (
    bundled_reference_tree,
    format_m_dissimilarity,
    read_bundled,
    read_fasta,
)
from phylokit.pipeline import (
    CONSERVED_ELEMENT_42,
    CONSERVED_ELEMENT_MOTIF,
    AlignedFasta,
    PipelineConfig,
    distances_from_alignment,
    find_motif,
    pairwise_site_differences,
    run_pipeline,
)
from phylokit.treespace import DissimilarityMap, m_dissimilarity, splits_of_tree
from phylokit.evolution import simulate_leaf_sequences
from phylokit.treespace import neighbor_join
from phylokit.formats import parse_distance_matrix, parse_newick


def _table3_path():
    import phylokit

    from importlib import resources

    return str(resources.files("phylokit") / "data" / "vertebrates10.phy")


def _context_path():
    from importlib import resources

    return str(resources.files("phylokit") / "data" / "motif_context.fa")


def _toy_alignment_path():
    from importlib import resources

    return str(resources.files("phylokit") / "data" / "toy_neutral_sites.fa")


# ---------------------------------------------------------------------------
# site differences


def test_identical_sequences_have_no_differences():
    aln = AlignedFasta(records=(("a", "ACGTAC"), ("b", "ACGTAC")))
    assert pairwise_site_differences(aln, "a", "b") == (6, 0)


def test_gap_and_n_columns_are_dropped_pairwise():
    aln = AlignedFasta(records=(("a", "AC-GT"), ("b", "AAAGT")))
    assert pairwise_site_differences(aln, "a", "b") == (4, 1)
    with_n = AlignedFasta(records=(("a", "ACNGT"), ("b", "AAAGT")))
    assert pairwise_site_differences(with_n, "a", "b") == (4, 1)


def test_toy_alignment_matches_hand_count():
    aln = AlignedFasta.from_text(read_bundled("toy_neutral_sites.fa"))
    # independent recount, frozen when the fixture was built
    s1, s2 = aln.sequence("alpha"), aln.sequence("beta")
    n = sum(1 for x, y in zip(s1, s2) if x in "ACGT" and y in "ACGT")
    k = sum(1 for x, y in zip(s1, s2) if x in "ACGT" and y in "ACGT" and x != y)
    assert (n, k) == (576, 118)
    assert pairwise_site_differences(aln, "alpha", "beta") == (576, 118)


def test_site_differences_errors():
    aln = AlignedFasta(records=(("a", "ACGT"), ("b", "ACGT")))
    with pytest.raises(ValueError, match="no record"):
        pairwise_site_differences(aln, "a", "zz")
    with pytest.raises(ValueError, match="length"):
        AlignedFasta(records=(("a", "ACGT"), ("b", "ACG")))


# ---------------------------------------------------------------------------
# motif search


def test_motif_equal_to_sequence():
    assert find_motif("ACGT", "ACGT") == [0]


def test_motif_absent():
    assert find_motif("ACGTACGT", "TTT") == []


def test_motif_overlapping_hits():
    assert find_motif("AAAA", "AA") == [0, 1, 2]


def test_motif_empty_is_an_error():
    with pytest.raises(ValueError):
        find_motif("ACGT", "")


def test_conserved_element_constants():
    assert len(CONSERVED_ELEMENT_42) == 42
    assert set(CONSERVED_ELEMENT_42) <= set("ACGT")
    # the 9-mer occurs twice inside the 42-mer
    assert len(find_motif(CONSERVED_ELEMENT_42, CONSERVED_ELEMENT_MOTIF)) == 2


def test_context_fixture_contains_the_42mer_once():
    records = read_fasta(read_bundled("motif_context.fa"))
    assert len(records) == 1
    _, seq = records[0]
    assert find_motif(seq, CONSERVED_ELEMENT_42) == [4242]


# ---------------------------------------------------------------------------
# the pipeline


def test_pipeline_from_bundled_matrix(tmp_path):
    report = run_pipeline(PipelineConfig(distances=_table3_path()))
    reference = bundled_reference_tree()
    tree = parse_newick(report.newick)
    assert splits_of_tree(tree).as_set() == splits_of_tree(reference).as_set()
    assert report.p_same == pytest.approx(0.009651, abs=2e-4)
    assert report.p_any == pytest.approx(0.038604, abs=8e-4)
    assert report.p_motif == pytest.approx(report.p_any**42, rel=1e-12)
    assert report.genome_scale == report.genome_length * report.p_motif
    assert report.log10_p_motif == pytest.approx(42 * math.log10(report.p_any))
    # distance-only inputs leave site counts unknown
    assert all(p.sites is None for p in report.pairwise)
    assert report.pairwise[0].distance > 0


def test_pipeline_is_reproducible():
    config = PipelineConfig(distances=_table3_path(), motif=CONSERVED_ELEMENT_42)
    first = run_pipeline(config).to_json()
    second = run_pipeline(config).to_json()
    assert first == second


def test_pipeline_from_alignment_reports_counts_and_hits():
    text = read_bundled("toy_neutral_sites.fa")
    report = run_pipeline(PipelineConfig(alignment=text, motif="ACGT"))
    assert all(p.sites is not None and p.sites > 0 for p in report.pairwise)
    assert len(report.pairwise) == 10  # 5 choose 2
    assert report.p_motif == pytest.approx(report.p_any ** 4, rel=1e-12)
    # motif hits are reported per taxon in ungapped coordinates
    aln = AlignedFasta.from_text(text)
    expected = sum(
        len(find_motif(aln.sequence(t).replace("-", ""), "ACGT")) for t in aln.taxa
    )
    assert len(report.motif_hits) == expected


def test_pipeline_saturated_pair_is_reported():
    records = (
        ("a", "ACGTACGTACGT"),
        ("b", "CATGCATGCATG"),  # every site differs
        ("c", "ACGTACGTACGA"),
    )
    aln = "\n".join(f">{n}\n{s}" for n, s in records)
    with pytest.raises(ValueError, match=r"\(a, b\)"):
        run_pipeline(PipelineConfig(alignment=aln))


def test_pipeline_reads_one_line_json_longer_than_a_file_name():
    dm = parse_distance_matrix(read_bundled("vertebrates10.phy"))
    text = json.dumps({"taxa": list(dm.taxa), "matrix": dm.values.tolist()})
    assert "\n" not in text and len(text) > 255
    report = run_pipeline(PipelineConfig(distances=text))
    want = run_pipeline(PipelineConfig(distances=_table3_path()))
    assert report.to_json() == want.to_json()


def test_pipeline_reads_the_matrix_by_position(monkeypatch):
    want = run_pipeline(PipelineConfig(distances=_table3_path()))
    dm = parse_distance_matrix(read_bundled("vertebrates10.phy"))
    assert [p.distance for p in want.pairwise] == [
        dm.get(a, b) for a, b in itertools.combinations(dm.taxa, 2)
    ]

    def refuse(self, a, b):
        raise AssertionError("the pipeline reads the matrix by position")

    monkeypatch.setattr(DissimilarityMap, "get", refuse)
    assert run_pipeline(PipelineConfig(distances=_table3_path())).to_json() == want.to_json()


def test_pipeline_config_validation():
    with pytest.raises(ValueError, match="exactly one"):
        PipelineConfig()
    with pytest.raises(ValueError, match="exactly one"):
        PipelineConfig(distances="x", alignment="y")
    with pytest.raises(ValueError, match="genome length"):
        PipelineConfig(distances="x", genome_length=-1.0)


def test_pipeline_simulation_round_trip_topology():
    """Distances from simulated neutral sites recover the generating
    topology for (at least) 9 of 10 fixed seeds."""
    reference = bundled_reference_tree()
    want = splits_of_tree(reference).as_set()
    wins = 0
    for seed in range(10):
        seqs = simulate_leaf_sequences(reference, 100_000, seed=seed)
        aln = AlignedFasta(records=tuple(sorted(seqs.items())))
        _, dm = distances_from_alignment(aln)
        if splits_of_tree(neighbor_join(dm)).as_set() == want:
            wins += 1
    assert wins >= 9


# ---------------------------------------------------------------------------
# command-line interface


def test_cli_pipeline_writes_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(
        [
            "pipeline",
            "--distances",
            _table3_path(),
            "--motif",
            CONSERVED_ELEMENT_42,
            "--genome-length",
            "2.8e9",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["specVersion"] == "1.0"
    assert payload["pSame"] == pytest.approx(0.009651, abs=2e-4)
    assert payload["p42"] == pytest.approx(4.3e-60, rel=0.03)
    assert 1.0e-50 <= payload["genomeScale"] <= 1.5e-50
    assert "tree:" in capsys.readouterr().out


def test_cli_nj_build_and_tree_fourpoint(tmp_path, capsys):
    assert main(["nj", "build", "--distances", _table3_path()]) == 0
    newick = capsys.readouterr().out.strip()
    tree = parse_newick(newick)
    assert set(tree.taxa) == set("cf dr gg hs mm pt rn tn tr xt".split())

    assert main(["tree", "fourpoint", "--distances", _table3_path()]) == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["metric"] is True
    # the estimated distances are close to, but not exactly, a tree metric
    assert "fourPoint" in verdict


def test_cli_tree_mtree_and_gr36(tmp_path, capsys):
    tree = bundled_reference_tree()
    md = m_dissimilarity(tree, 3)
    path = tmp_path / "m3.json"
    path.write_text(format_m_dissimilarity(md))
    assert main(["tree", "mtree", "--input", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["isMTree"] is True

    # restrict to six taxa for the linear-relation check
    sub = m_dissimilarity(tree, 3)
    from phylokit.treespace import MDissimilarityMap

    keep = tuple(sorted(tree.taxa)[:6])
    values = {k: v for k, v in sub.values.items() if k <= set(keep)}
    path6 = tmp_path / "m3-six.json"
    path6.write_text(
        format_m_dissimilarity(MDissimilarityMap(taxa=keep, m=3, values=values))
    )
    assert main(["tree", "gr36", "--input", str(path6)]) == 0
    residuals = json.loads(capsys.readouterr().out)["residuals"]
    assert max(abs(r) for r in residuals) <= 1e-10


def test_cli_tree_mtree_prints_the_witness_and_the_vacuous_flag(tmp_path, capsys):
    from phylokit.treespace import MDissimilarityMap

    taxa = tuple("abcdef")
    values = {frozenset(s): 1.0 for s in itertools.combinations(taxa, 3)}
    values[frozenset("abc")] = 5.0  # breaks the triangle pinned at a
    bad = tmp_path / "bad.json"
    bad.write_text(format_m_dissimilarity(MDissimilarityMap(taxa, 3, values)))
    assert main(["tree", "mtree", "--input", str(bad)]) == 0
    assert capsys.readouterr().out == (
        '{"isMTree": false, "vacuous": false, "witness": [["a"], ["b", "d", "c"]]}\n'
    )

    four = taxa[:4]  # below m + 2 taxa every 3-map passes vacuously
    small = {k: v for k, v in values.items() if k <= set(four)}
    path = tmp_path / "four.json"
    path.write_text(format_m_dissimilarity(MDissimilarityMap(four, 3, small)))
    assert main(["tree", "mtree", "--input", str(path)]) == 0
    assert capsys.readouterr().out == (
        '{"isMTree": true, "vacuous": true, "witness": null}\n'
    )


def test_cli_dist_round_trips_through_nj(tmp_path, capsys):
    assert main(["dist", "--alignment", _toy_alignment_path()]) == 0
    text = capsys.readouterr().out
    assert text.startswith("5")
    matrix = tmp_path / "d.phy"
    matrix.write_text(text)
    assert main(["nj", "build", "--distances", str(matrix)]) == 0
    assert capsys.readouterr().out.strip().endswith(";")

    assert main(["dist", "--alignment", _toy_alignment_path(), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"taxa", "matrix"} and len(payload["taxa"]) == 5


def test_cli_align_subcommands(tmp_path, capsys):
    params = {
        "S": [[0.7, 0.2, 0.1], [0.3, 0.5, 0.2], [0.3, 0.2, 0.5]],
        "tM": [[0.1, 0.05, 0.05, 0.05] for _ in range(4)],
        "tI": [0.25, 0.25, 0.25, 0.25],
        "tD": [0.25, 0.25, 0.25, 0.25],
    }
    ppath = tmp_path / "pair.json"
    ppath.write_text(json.dumps(params))

    assert main(["align", "enumerate", "--n", "2", "--m", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 25

    assert (
        main(
            ["align", "prob", "--params", str(ppath), "--seq1", "AC", "--seq2", "GCA"]
        )
        == 0
    )
    payload = json.loads(capsys.readouterr().out)
    assert payload["probability"] > 0
    assert payload["logProbability"] == pytest.approx(
        math.log(payload["probability"]), rel=1e-12
    )

    assert (
        main(
            ["align", "viterbi", "--params", str(ppath), "--seq1", "AC", "--seq2", "GCA"]
        )
        == 0
    )
    first_line = capsys.readouterr().out.splitlines()[0]
    assert "alignment" in json.loads(first_line)

    assert (
        main(
            [
                "align", "score", "--mis", "1", "--gap", "10",
                "--seq1", "ACGT", "--seq2", "ACGA",
            ]
        )
        == 0
    )
    first_line = capsys.readouterr().out.splitlines()[0]
    assert json.loads(first_line) == {"alignment": "MMMM", "score": 2.0}

    assert main(["align", "polygon", "--seq1", "AC", "--seq2", "GTA"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"vertices", "witnesses"}
    assert len(payload["vertices"]) == len(payload["witnesses"])


def test_cli_align_enumerate_a_long_word(capsys):
    assert main(["align", "enumerate", "--n", "1200", "--m", "0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"count": 1, "alignments": ["D" * 1200]}


def test_cli_hmm_subcommands(tmp_path, capsys):
    hpath = tmp_path / "hmm.json"
    hpath.write_text(
        json.dumps(
            {
                "S": [[0.9, 0.1], [0.2, 0.8]],
                "T": [[0.7, 0.3], [0.4, 0.6]],
                "init": [0.5, 0.5],
                "mode": "stochastic",
            }
        )
    )
    obs = tmp_path / "obs.txt"
    obs.write_text("0101\n0011\n")

    assert main(["hmm", "forward", "--params", str(hpath), "--observations", str(obs)]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 2 and rows[0]["probability"] > 0

    assert main(["hmm", "viterbi", "--params", str(hpath), "--observations", str(obs)]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert set(rows[0]["path"]) <= {"0", "1"}

    out = tmp_path / "trained.json"
    assert (
        main(
            [
                "hmm", "train", "--params", str(hpath),
                "--observations", str(obs), "--max-iters", "10",
                "--out", str(out),
            ]
        )
        == 0
    )
    trained = json.loads(out.read_text())
    assert trained["k"] == 2


def test_cli_codon_test(tmp_path, capsys):
    fasta = tmp_path / "codons.fa"
    fasta.write_text(">seq1\nATGATGTAA\n>seq2\nATGCCCGGGTTT\n")
    assert main(["codon", "test", "--fasta", str(fasta)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"codons", "g2", "chi2", "df", "sigma2", "maxMinor"}
    assert payload["df"] == 45
    assert payload["codons"] == 7


def test_cli_motif_find(capsys):
    assert main(["motif", "find", "--fasta", _context_path()]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["hits"][0]["positions"] == [4242]


def test_cli_input_errors_exit_2(tmp_path, capsys):
    assert main(["nj", "build", "--distances", str(tmp_path / "missing.phy")]) == 2
    assert "error:" in capsys.readouterr().err
    bad = tmp_path / "bad.phy"
    bad.write_text("2\na 0 1.5\nb 1.0 0\n")
    assert main(["nj", "build", "--distances", str(bad)]) == 2
    assert "asymmetric" in capsys.readouterr().err
    assert main(["align", "polygon", "--seq1", "ACGT"]) == 2
    assert "seq1" in capsys.readouterr().err


def test_cli_refuses_to_write_labels_newick_would_split(tmp_path, capsys):
    fasta = tmp_path / "names.fa"
    fasta.write_text(
        ">x:1\nAAATACGTACGTACGTACGTACGTACGTACGTACGTACGT\n"
        ">y(2)\nACGTACGTACGTACGTACGTCAGTACGTACATACGTACGT\n"
        ">z,3\nACGTACGTACGTACGTACGTACAAACGTACGAACGTACGT\n"
        ">w\nCCGTACGTACGTACGTACGTACGTACGTACGTACGTACGT\n"
    )
    assert main(["pipeline", "--alignment", str(fasta)]) == 2
    assert "taxon label 'x:1'" in capsys.readouterr().err
    matrix = tmp_path / "names.json"
    matrix.write_text(
        json.dumps({"taxa": ["a,b", "c", "d"], "matrix": [[0, 1, 2], [1, 0, 2], [2, 2, 0]]})
    )
    assert main(["nj", "build", "--distances", str(matrix)]) == 2
    assert "taxon label 'a,b'" in capsys.readouterr().err


@pytest.mark.parametrize("error", [RecursionError, MemoryError])
def test_cli_resource_errors_exit_2(monkeypatch, capsys, error):
    from phylokit import cli

    def too_deep(args):
        raise error("input nested too deep")

    monkeypatch.setattr(cli, "_cmd_nj", too_deep)
    assert main(["nj", "build", "--distances", _table3_path()]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert f"{error.__name__}: input nested too deep" in err


def test_cli_refuses_json_inputs_with_a_repeated_subset_or_string_taxa(tmp_path, capsys):
    values = {",".join(s): 1.0 for s in itertools.combinations("abcd", 3)}
    path = tmp_path / "m3.json"
    repeated = {**values, "c,b,a": 5}  # read as delta(a,b,c) = 5 before
    path.write_text(json.dumps({"taxa": list("abcd"), "m": 3, "values": repeated}))
    _exit_2_without_output(["tree", "mtree", "--input", str(path)], capsys, "'a,b,c'")
    path.write_text(json.dumps({"taxa": "abcd", "m": 3, "values": values}))
    _exit_2_without_output(["tree", "mtree", "--input", str(path)], capsys, "JSON array")
    path.write_text(json.dumps({"taxa": "abc", "matrix": [[0, 1, 1], [1, 0, 1], [1, 1, 0]]}))
    _exit_2_without_output(["nj", "build", "--distances", str(path)], capsys, "JSON array")


def _leaf_commands(root):
    """One call of each of the 16 leaf commands, on inputs written under root."""
    pair = root / "pair.json"
    pair.write_text(
        json.dumps(
            {
                "S": [[0.7, 0.2, 0.1], [0.3, 0.5, 0.2], [0.3, 0.2, 0.5]],
                "tM": [[0.1, 0.05, 0.05, 0.05] for _ in range(4)],
                "tI": [0.25] * 4,
                "tD": [0.25] * 4,
            }
        )
    )
    two = root / "two.fa"
    two.write_text(">a\nACGGTAC\n>b\nAGGTTACA\n")
    hmm = root / "hmm.json"
    hmm.write_text(json.dumps(_TWO_STATE_HMM))
    obs = root / "obs.txt"
    obs.write_text("0101\n0011\n")
    codons = root / "codons.fa"
    codons.write_text(">s1\nATGATGTAA\n>s2\nATGCCCGGGTTT\n")
    m3 = root / "m3.json"
    six = parse_newick("((a:1,b:2):1,(c:1,d:3):0.5,(e:2,f:1):1);")
    m3.write_text(format_m_dissimilarity(m_dissimilarity(six, 3)))
    hmm_input = ["--params", str(hmm), "--observations", str(obs)]
    return {
        "pipeline": ["pipeline", "--distances", _table3_path()],
        "dist": ["dist", "--alignment", _toy_alignment_path()],
        "nj build": ["nj", "build", "--distances", _table3_path()],
        "align prob": ["align", "prob", "--params", str(pair), "--fasta", str(two)],
        "align viterbi": ["align", "viterbi", "--params", str(pair), "--fasta", str(two)],
        "align score": ["align", "score", "--mis", "1", "--gap", "2", "--fasta", str(two)],
        "align polygon": ["align", "polygon", "--fasta", str(two)],
        "align enumerate": ["align", "enumerate", "--n", "2", "--m", "2"],
        "hmm forward": ["hmm", "forward", *hmm_input],
        "hmm viterbi": ["hmm", "viterbi", *hmm_input],
        "hmm train": ["hmm", "train", *hmm_input, "--max-iters", "5"],
        "codon test": ["codon", "test", "--fasta", str(codons)],
        "tree fourpoint": ["tree", "fourpoint", "--distances", _table3_path()],
        "tree mtree": ["tree", "mtree", "--input", str(m3)],
        "tree gr36": ["tree", "gr36", "--input", str(m3)],
        "motif find": ["motif", "find", "--fasta", _context_path()],
    }


@pytest.mark.parametrize(
    "command",
    [
        "pipeline", "dist", "nj build", "align prob", "align viterbi", "align score",
        "align polygon", "align enumerate", "hmm forward", "hmm viterbi", "hmm train",
        "codon test", "tree fourpoint", "tree mtree", "tree gr36", "motif find",
    ],
)
def test_cli_out_file_gets_the_bytes_stdout_gets(tmp_path, capsys, command):
    argv = _leaf_commands(tmp_path)[command]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "result"
    assert main(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == printed.encode()
    assert printed.endswith("\n") and not printed.endswith("\n\n")
    beside = capsys.readouterr().out
    if command == "pipeline":  # the summary still goes to stdout
        assert beside == run_pipeline(PipelineConfig(distances=_table3_path())).to_text()
    else:
        assert beside == ""


# ---------------------------------------------------------------------------
# array site counting against the per-pair loop it replaced


def _loop_site_differences(s1, s2):
    import numpy as np

    a = np.frombuffer(s1.encode("ascii"), dtype=np.uint8)
    b = np.frombuffer(s2.encode("ascii"), dtype=np.uint8)
    bases = np.frombuffer(b"ACGT", dtype=np.uint8)
    usable = np.isin(a, bases) & np.isin(b, bases)
    return int(usable.sum()), int((a[usable] != b[usable]).sum())


def _masked_alignment(seed, taxa, sites, masked):
    """Simulated records with a share ``masked`` of cells replaced by a
    gap or N, plus one all-gap column; records given out of order."""
    import numpy as np

    from conftest import random_tree, rng

    g = rng(seed)
    seqs = simulate_leaf_sequences(random_tree(seed, taxa, 0.01, 0.2), sites, seed)
    records = []
    for name in g.permutation(sorted(seqs)):
        row = np.frombuffer(seqs[name].encode("ascii"), dtype=np.uint8).copy()
        hit = g.random(sites) < masked
        row[hit] = g.choice(np.frombuffer(b"-N", dtype=np.uint8), int(hit.sum()))
        row[sites // 2] = ord("-")
        records.append((str(name), row.tobytes().decode("ascii")))
    return AlignedFasta(records=tuple(records))


def test_distances_from_alignment_match_the_pair_loop():
    import numpy as np

    from phylokit.evolution import jc_distance

    for seed, (taxa, sites, masked) in enumerate(
        [(4, 50, 0.3), (9, 700, 0.1), (13, 2000, 0.25), (17, 1500, 0.02)]
    ):
        aln = _masked_alignment(9800 + seed, taxa, sites, masked)
        pairwise, dm = distances_from_alignment(aln)
        names = aln.taxa
        want = []
        values = np.zeros((taxa, taxa))
        for i, a in enumerate(names):
            for j in range(i + 1, taxa):
                b = names[j]
                n, k = _loop_site_differences(aln.sequence(a), aln.sequence(b))
                assert pairwise_site_differences(aln, a, b) == (n, k)
                want.append({"pair": [a, b], "n": n, "k": k, "distance": jc_distance(n, k)})
                values[i, j] = values[j, i] = want[-1]["distance"]
        assert json.dumps([p.to_dict() for p in pairwise]) == json.dumps(want)
        assert dm.taxa == names
        assert dm.values.tobytes() == ((values + values.T) / 2.0).tobytes()


def test_distances_from_alignment_memory_stays_near_the_alignment_size():
    import tracemalloc

    from conftest import random_tree

    taxa, sites = 20, 100_000
    seqs = simulate_leaf_sequences(random_tree(9900, taxa, 0.01, 0.1), sites, 1)
    aln = AlignedFasta(records=tuple(sorted(seqs.items())))
    tracemalloc.start()
    try:
        distances_from_alignment(aln)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * taxa * sites


def test_cli_main_repeated_in_one_process_matches_fresh_runs(capsys):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import phylokit

    src = str(Path(phylokit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    calls = [
        (["pipeline", "--distances", _table3_path()], 0),
        (["align", "polygon", "--seq1", "ACGGTAC", "--seq2", "AGGTTACA"], 0),
        (["align", "polygon", "--seq1", "ACGT"], 2),  # the handler rejects it
        (["nj", "build"], 2),  # the parser rejects it
        (["nj", "build", "--distances", _table3_path()], 0),
        (["dist", "--alignment", _toy_alignment_path(), "--format", "json"], 0),
        (["pipeline", "--distances", _table3_path()], 0),
    ]
    for argv, code in calls:
        try:
            got = main(argv)
        except SystemExit as exc:
            got = exc.code
        out = capsys.readouterr().out
        fresh = subprocess.run(
            [sys.executable, "-m", "phylokit.cli", *argv],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert (got, out) == (code, fresh.stdout), argv
        assert fresh.returncode == code, argv
        assert out or code == 2


def test_cli_pipeline_rejects_infinite_distances(tmp_path, capsys):
    path = tmp_path / "inf.phy"
    path.write_text("3\na 0 1 inf\nb 1 0 1\nc inf 1 0\n")
    assert main(["pipeline", "--distances", str(path)]) == 2
    assert "inf" in capsys.readouterr().err


def test_cli_align_score_rejects_non_finite_penalties(capsys):
    for mis, gap in (("1", "inf"), ("nan", "1")):
        argv = ["align", "score", "--seq1", "ACGT", "--seq2", "ACGT", "--mis", mis, "--gap", gap]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "finite and non-negative" in captured.err


def test_cli_align_score_large_and_non_finite_scores(capsys):
    argv = ["align", "score", "--seq1", "ACGT", "--seq2", "ACG", "--mis", "1", "--gap", "800"]
    assert main(argv) == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert json.loads(first) == {"alignment": "MMMD", "score": -797.0}
    argv = ["align", "score", "--seq1", "ACGTA", "--seq2", "ACG", "--mis", "1", "--gap", "1e308"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not finite" in captured.err


def test_cli_gr36_rejects_nan_values(tmp_path, capsys):
    taxa = ["a", "b", "c", "d", "e", "f"]
    values = {",".join(s): 1.0 for s in itertools.combinations(taxa, 3)}
    values["a,b,c"] = math.nan
    path = tmp_path / "m3-nan.json"
    path.write_text(json.dumps({"taxa": taxa, "m": 3, "values": values}))
    assert main(["tree", "gr36", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "finite" in captured.err


_TWO_STATE_HMM = {
    "S": [[0.9, 0.1], [0.2, 0.8]],
    "T": [[0.7, 0.3], [0.4, 0.6]],
    "init": [0.5, 0.5],
}


def _exit_2_without_output(argv, capsys, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and message in captured.err


def test_cli_rejects_parameter_files_that_are_not_objects(tmp_path, capsys):
    obs = tmp_path / "obs.txt"
    obs.write_text("0101\n")
    params = tmp_path / "params.json"
    params.write_text("[1]")
    hmm_argv = ["hmm", "forward", "--params", str(params), "--observations", str(obs)]
    _exit_2_without_output(hmm_argv, capsys, "JSON object")
    align_argv = ["align", "prob", "--params", str(params), "--seq1", "AC", "--seq2", "A"]
    _exit_2_without_output(align_argv, capsys, "JSON object")
    for labels in (5, [[1], [2]], [0, 1]):
        params.write_text(json.dumps({**_TWO_STATE_HMM, "labels": labels}))
        _exit_2_without_output(hmm_argv, capsys, "strings")


def test_cli_hmm_train_rejects_negative_max_iters(tmp_path, capsys):
    from phylokit.hmm import HmmParams, baum_welch_train

    with pytest.raises(ValueError, match="max_iters"):
        baum_welch_train(HmmParams.from_dict(_TWO_STATE_HMM), [[0, 1]], max_iters=-1)
    params = tmp_path / "hmm.json"
    params.write_text(json.dumps(_TWO_STATE_HMM))
    obs = tmp_path / "obs.txt"
    obs.write_text("0101\n")
    argv = ["hmm", "train", "--params", str(params), "--observations", str(obs)]
    _exit_2_without_output(argv + ["--max-iters", "-1"], capsys, "max_iters")
    assert main(argv + ["--max-iters", "0"]) == 0
    assert json.loads(capsys.readouterr().out) == json.loads(params.read_text()) | {
        "k": 2, "l": 2, "mode": "stochastic", "labels": ["0", "1"]
    }


def test_cli_pipeline_rejects_a_non_finite_genome_length(capsys):
    for length in ("nan", "inf", "-inf", "0"):
        argv = ["pipeline", "--distances", _table3_path(), f"--genome-length={length}"]
        _exit_2_without_output(argv, capsys, "finite and positive")
    with pytest.raises(ValueError, match="genome length"):
        PipelineConfig(distances="x", genome_length=math.nan)


def test_cli_hmm_rejects_an_alphabet_with_repeated_symbols(tmp_path, capsys):
    params = tmp_path / "hmm.json"
    params.write_text(
        json.dumps({"S": [[1.0]], "T": [[0.25, 0.25, 0.25, 0.25]], "init": [1.0]})
    )
    obs = tmp_path / "obs.txt"
    obs.write_text("ACGA\n")
    argv = ["hmm", "forward", "--params", str(params), "--observations", str(obs)]
    _exit_2_without_output(argv + ["--alphabet", "AACG"], capsys, "repeats")
    assert main(argv + ["--alphabet", "ACGT"]) == 0
    assert json.loads(capsys.readouterr().out)[0]["probability"] == pytest.approx(0.25**4)


def test_simulate_and_rebuild_script_runs():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import phylokit

    script = Path(__file__).resolve().parents[1] / "scripts" / "simulate_and_rebuild.py"
    src = str(Path(phylokit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(script), "--sites", "2000", "--seeds", "2"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "recovered" in done.stdout


def test_a_pair_with_no_shared_plain_site_is_named(tmp_path, capsys):
    from phylokit.evolution import SaturationError

    text = ">a\nACGT----\n>b\n----ACGT\n>c\nACGTACGT\n"
    with pytest.raises(ValueError, match=r"^pair \(a, b\): site count") as info:
        distances_from_alignment(AlignedFasta.from_text(text))
    assert not isinstance(info.value, SaturationError)
    fasta = tmp_path / "gaps.fa"
    fasta.write_text(text)
    for command in ("dist", "pipeline"):
        _exit_2_without_output(
            [command, "--alignment", str(fasta)],
            capsys,
            "pair (a, b): site count must be at least 1",
        )
    # saturation keeps its type and its text
    saturated = ">a\nACGTACGTACGT\n>b\nCATGCATGCATG\n>c\nACGTACGTACGA\n"
    with pytest.raises(SaturationError) as info:
        distances_from_alignment(AlignedFasta.from_text(saturated))
    assert str(info.value) == (
        "pair (a, b) is saturated: 12 differences in 12 sites exceed the "
        "resolvable fraction 3/4"
    )


def test_cli_codon_errors_name_the_record(tmp_path, capsys):
    fasta = tmp_path / "codons.fa"
    argv = ["codon", "test", "--fasta", str(fasta)]
    for seq, message in (
        ("ATGNAA", "record 'y': invalid nucleotide 'N' at position 3"),
        ("ATGAA", "record 'y': sequence length 5 is not divisible by 3"),
    ):
        fasta.write_text(f">x\nATGATG\n>y\n{seq}\n")
        _exit_2_without_output(argv, capsys, message)


def test_cli_hmm_reads_every_observation_through_one_alphabet(tmp_path, capsys):
    params = tmp_path / "hmm.json"
    params.write_text(
        json.dumps({"S": [[0.5, 0.5], [0.5, 0.5]], "T": [[1 / 3] * 3] * 2, "init": [0.5, 0.5]})
    )
    obs = tmp_path / "obs.txt"
    argv = ["hmm", "viterbi", "--params", str(params), "--observations", str(obs)]
    obs.write_text("012\n")
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)[0]["path"] == "000"
    # a non-digit and a digit past the emission width fail alike
    for line in ("01a", "015"):
        obs.write_text(line + "\n")
        _exit_2_without_output(
            argv, capsys, f"symbol {line[-1]!r} on line 1 is not in the alphabet '012'"
        )
    # twelve symbols cannot be named by single digits
    params.write_text(json.dumps({"S": [[1.0]], "T": [[1 / 12] * 12], "init": [1.0]}))
    obs.write_text("0ab\n")
    argv[1] = "forward"
    _exit_2_without_output(argv, capsys, "give --alphabet")
    assert main(argv + ["--alphabet", "0123456789ab"]) == 0
    row = json.loads(capsys.readouterr().out)[0]
    assert row["probability"] == pytest.approx(12.0**-3)


def _ascii_plain_site_counts(seqs):
    """(usable, differing) for every row pair i < j, counted as before the
    shared nucleotide table: uppercased ASCII codes and a plain-base mask."""
    import numpy as np

    is_plain = np.zeros(256, dtype=bool)
    is_plain[np.frombuffer(b"ACGT", dtype=np.uint8)] = True
    codes = np.frombuffer("".join(s.upper() for s in seqs).encode("ascii"), dtype=np.uint8)
    codes = codes.reshape(len(seqs), -1)
    plain = is_plain[codes]
    counts = {}
    for i, j in itertools.combinations(range(len(seqs)), 2):
        usable = plain[i] & plain[j]
        counts[i, j] = (int(usable.sum()), int((usable & (codes[i] != codes[j])).sum()))
    return counts


def test_distances_with_lowercase_n_and_gaps_equal_the_ascii_count():
    import numpy as np

    from conftest import random_tree, rng

    for seed, (taxa, sites) in enumerate([(3, 40), (6, 300), (11, 900)]):
        g = rng(1603 + seed)
        seqs = simulate_leaf_sequences(random_tree(1603 + seed, taxa, 0.01, 0.2), sites, seed)
        records = []
        for name in g.permutation(sorted(seqs)):
            row = np.array(list(seqs[name]))
            u = g.random(sites)
            row[u < 0.1] = "N"
            row[(u >= 0.1) & (u < 0.15)] = "n"
            row[(u >= 0.15) & (u < 0.25)] = "-"
            lower = g.random(sites) < 0.4
            row[lower] = np.char.lower(row[lower])
            records.append((str(name), "".join(row)))
        aln = AlignedFasta(records=tuple(records))
        given = dict(records)
        want = _ascii_plain_site_counts([given[t] for t in aln.taxa])
        pairwise, _ = distances_from_alignment(aln)
        assert [(p.sites, p.differences) for p in pairwise] == list(want.values())
        for (i, j), counts in want.items():
            a, b = aln.taxa[i], aln.taxa[j]
            assert pairwise_site_differences(aln, a, b) == counts
            assert pairwise_site_differences(aln, b, a) == counts


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # 1e200 products overflow
def test_cli_writes_non_finite_floats_as_null(tmp_path, capsys):
    def strict(text):
        def refuse(token):
            raise ValueError(f"non-standard JSON token {token}")

        return json.loads(text, parse_constant=refuse)

    params = tmp_path / "hmm.json"
    params.write_text(json.dumps({"S": [[1.0]], "T": [[1.0, 0.0]], "init": [1.0]}))
    obs = tmp_path / "obs.txt"
    obs.write_text("01\n")
    assert main(["hmm", "forward", "--params", str(params), "--observations", str(obs)]) == 0
    rows = strict(capsys.readouterr().out)
    assert rows == [{"observation": "01", "probability": 0.0, "logProbability": None}]

    pair = tmp_path / "pair.json"
    huge = {"S": [[1e200] * 3] * 3, "tM": [[1e200] * 4] * 4, "tI": [1e200] * 4, "tD": [1e200] * 4}
    pair.write_text(json.dumps(huge))
    argv = ["align", "prob", "--params", str(pair), "--seq1", "ACGT", "--seq2", "ACGT"]
    assert main(argv) == 0
    assert strict(capsys.readouterr().out) == {"probability": None, "logProbability": None}

    only_match = {"S": [[1, 0, 0]] * 3, "tM": [[1] * 4] * 4, "tI": [1] * 4, "tD": [1] * 4}
    pair.write_text(json.dumps(only_match))
    argv = ["align", "viterbi", "--params", str(pair), "--seq1", "ACGT", "--seq2", "AC"]
    assert main(argv) == 0
    first_line = capsys.readouterr().out.splitlines()[0]
    assert strict(first_line)["logScore"] is None


@pytest.mark.parametrize(
    "data, missing",
    [
        ({"T": [[1.0]]}, "'S'"),
        ({"S": [[1.0]], "init": [1.0]}, "'T'"),
    ],
)
def test_hmm_parameter_reader_names_the_missing_field(tmp_path, capsys, data, missing):
    from phylokit.hmm import HmmParams

    message = f"HMM parameters need S and T: missing {missing}"
    with pytest.raises(ValueError) as info:
        HmmParams.from_dict(data)
    assert str(info.value) == message
    params = tmp_path / "hmm.json"
    params.write_text(json.dumps(data))
    obs = tmp_path / "obs.txt"
    obs.write_text("0\n")
    argv = ["hmm", "forward", "--params", str(params), "--observations", str(obs)]
    _exit_2_without_output(argv, capsys, message)


@pytest.mark.parametrize("missing", ["S", "tM", "tI", "tD"])
def test_pair_parameter_reader_names_the_missing_field(tmp_path, capsys, missing):
    from phylokit.pairhmm import PairHmmParams

    data = {"S": [[1] * 3] * 3, "tM": [[1] * 4] * 4, "tI": [1] * 4, "tD": [1] * 4}
    del data[missing]
    message = f"pair-HMM parameters need S, tM, tI and tD: missing {missing!r}"
    with pytest.raises(ValueError) as info:
        PairHmmParams.from_dict(data)
    assert str(info.value) == message
    params = tmp_path / "pair.json"
    params.write_text(json.dumps(data))
    argv = ["align", "prob", "--params", str(params), "--seq1", "AC", "--seq2", "A"]
    _exit_2_without_output(argv, capsys, message)


def test_cli_dist_names_the_record_and_position_of_a_bad_letter(tmp_path, capsys):
    fasta = tmp_path / "bad.fa"
    fasta.write_text(">a\nACGX\n>b\nACGT\n")
    message = "record 'a': invalid nucleotide 'X' at position 3"
    _exit_2_without_output(["dist", "--alignment", str(fasta)], capsys, message)
