"""Newick parsing/emission round trips, distance-matrix formats, FASTA,
and parameter JSON."""

import json
import string
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phylokit.cli import main
from phylokit.formats import (
    bundled_distance_matrix,
    bundled_reference_tree,
    emit_newick,
    format_distance_matrix,
    format_m_dissimilarity,
    hmm_params_from_json,
    hmm_params_to_json,
    parse_distance_matrix,
    parse_m_dissimilarity,
    parse_newick,
    read_bundled,
    read_fasta,
    write_fasta,
)
from phylokit.hmm import HmmParams
from phylokit.treespace import (
    DissimilarityMap,
    MDissimilarityMap,
    m_dissimilarity,
    random_binary_tree,
    splits_of_tree,
    tree_metric,
)

from conftest import caterpillar, keyed_m_map, random_tree, rng


# ---------------------------------------------------------------------------
# Newick


def test_parse_two_leaf_tree_keeps_both_lengths():
    tree = parse_newick("(a:1,b:2);")
    assert tree.taxa == ("a", "b")
    assert tree.num_nodes == 3
    lengths = sorted(length for _, _, length in tree.edges())
    assert lengths == [1.0, 2.0]
    assert tree_metric(tree).get("a", "b") == 3.0


def test_parse_reference_tree():
    tree = bundled_reference_tree()
    assert tree.taxa == ("cf", "dr", "gg", "hs", "mm", "pt", "rn", "tn", "tr", "xt")
    # the two top-level edges subdivide the root edge of the unrooted tree
    assert tree_metric(tree).get("hs", "pt") == pytest.approx(0.013)
    collapsed = tree.suppress_unifurcations()
    assert collapsed.num_nodes == tree.num_nodes - 1


def test_parse_errors_carry_character_offsets():
    with pytest.raises(ValueError, match="character"):
        parse_newick("(a:1,b:2")
    with pytest.raises(ValueError, match="character"):
        parse_newick("(a:1,:2);")
    with pytest.raises(ValueError, match="branch length"):
        parse_newick("(a:xx,b:2);")
    with pytest.raises(ValueError, match="duplicate"):
        parse_newick("(a:1,a:2);")
    with pytest.raises(ValueError, match="two leaves"):
        parse_newick("a;")
    for text, message in [
        ("(a:1,b[x]:2);", "expected ')', found '[' at character 6"),
        ("(a:1,b'c:2);", """expected ')', found "'" at character 6"""),
        ("((a:1,b:2),c:3", "unexpected end of input at character 14"),
        ("(a,b,()x);", "expected ')', found 'x' at character 7"),  # "()" takes no label
        ("(a:1,b:2,:3);", "expected a leaf label at character 9"),
    ]:
        with pytest.raises(ValueError) as caught:
            parse_newick(text)
        assert str(caught.value) == message


def test_parse_rejects_nan_branch_lengths():
    for text in ("(a:nan,b:1,c:1);", "((a:1,b:1):NaN,c:1);"):
        with pytest.raises(ValueError, match="branch length"):
            parse_newick(text)


def test_parse_rejects_non_finite_branch_lengths_at_their_offset():
    for text, at in [
        ("(a:inf,b:1,c:1);", 3),
        ("(a:1,b:-inf,c:1);", 7),
        ("(a:1,b:1,c: 1e400);", 12),
        ("((a:1,b:1):Infinity,c:1);", 11),
        ("(a:nan,b:1,c:1);", 3),
    ]:
        value = text[at:].split(",")[0].split(")")[0]
        with pytest.raises(ValueError) as caught:
            parse_newick(text)
        assert str(caught.value) == f"invalid branch length {value!r} at character {at}"


def test_negative_zero_length_is_written_as_zero():
    tree = parse_newick("(a:-0,b:1,c:-0.0);")
    assert emit_newick(tree) == "(a:0.000000,b:1.000000,c:0.000000);"
    hub, leaf = tree.nodes()[0], tree.node_of("a")
    assert str(tree.edge_length(hub, leaf)) == "0.0"


def test_parse_tolerates_whitespace_and_internal_labels():
    tree = parse_newick("( (a:1, b:2)inner:0.5 , c:3 );\n")
    assert tree.taxa == ("a", "b", "c")
    assert tree_metric(tree).get("a", "c") == pytest.approx(4.5)


def test_emit_is_deterministic_and_sorted():
    tree = parse_newick("((b:1,a:2):0.5,(d:1,c:1):0.25,e:4);")
    text = emit_newick(tree)
    assert text == emit_newick(tree)
    assert text.index("a") < text.index("b") < text.index("c")
    from phylokit.trees import PhyloTree

    star = PhyloTree()  # an unlabeled leaf is written as an empty group, last
    hub = star.add_node()
    star.add_edge(hub, star.add_node(), 1.0)
    for name in "cab":
        star.add_edge(hub, star.add_node(label=name), 1.0)
    assert emit_newick(star) == "(a:1.000000,b:1.000000,c:1.000000,():1.000000);"
    assert emit_newick(parse_newick(emit_newick(star))) == emit_newick(star)
    pair = PhyloTree()  # two taxa, but not a single edge
    hub = pair.add_node()
    for name in ("a", "b", None):
        pair.add_edge(hub, pair.add_node(label=name), 0.5)
    assert emit_newick(pair) == "(a:0.500000,b:0.500000,():0.500000);"
    assert emit_newick(parse_newick(emit_newick(pair))) == emit_newick(pair)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.text(string.printable, max_size=3), min_size=3, max_size=5, unique=True),
    st.integers(0, 2**32 - 1),
)
def test_emit_writes_only_labels_the_reader_reads_back(labels, seed):
    tree = random_binary_tree(labels, rng(seed))
    try:
        text = emit_newick(tree)
    except ValueError as exc:
        assert any(f"taxon label {label!r}" in str(exc) for label in labels)
        return
    again = parse_newick(text)
    assert again.taxa == tree.taxa
    want, got = tree_metric(tree), tree_metric(again)
    assert np.abs(want.values - got.values).max() < 1e-5


def test_round_trip_random_trees():
    for seed in range(100):
        tree = random_tree(3000 + seed, 3 + seed % 9)
        again = parse_newick(emit_newick(tree))
        assert splits_of_tree(again).as_set() == splits_of_tree(tree).as_set()
        want, got = tree_metric(tree), tree_metric(again)
        assert want.taxa == got.taxa
        assert np.abs(want.values - got.values).max() < 1e-5  # 6-decimal emission


def test_deep_caterpillar_round_trips_without_recursion():
    tree = caterpillar(10_000, 3100)
    text = emit_newick(tree)
    assert text.startswith("(c00000:") and text.count("(") == 9_998
    again = parse_newick(text)
    assert len(again.taxa) == 10_000
    assert emit_newick(again) == text

def test_emit_two_leaf_tree():
    tree = parse_newick("(a:1,b:2);")
    assert emit_newick(tree) == "(a:3.000000,b:0.000000);"
    again = parse_newick(emit_newick(tree))
    assert tree_metric(again).get("a", "b") == pytest.approx(3.0)


# ---------------------------------------------------------------------------
# distance matrices


def test_bundled_matrix_spot_values():
    dm = bundled_distance_matrix()
    assert dm.get("hs", "pt") == 0.013
    assert dm.get("gg", "hs") == 0.831
    assert dm.get("tn", "tr") == 0.315
    assert dm.size == 10


def test_two_taxon_matrix():
    dm = parse_distance_matrix("2\na 0 1.5\nb 1.5 0\n")
    assert dm.get("a", "b") == 1.5


def test_phylip_round_trip():
    dm = bundled_distance_matrix()
    again = parse_distance_matrix(format_distance_matrix(dm, "phylip"))
    assert again.taxa == dm.taxa
    assert np.abs(again.values - dm.values).max() < 1e-9


def test_json_round_trip():
    dm = bundled_distance_matrix()
    again = parse_distance_matrix(format_distance_matrix(dm, "json"))
    assert again.taxa == dm.taxa
    assert (again.values == dm.values).all()


def test_random_map_round_trips_both_styles():
    import numpy as np

    from conftest import rng

    g = rng(3200)
    raw = g.random((6, 6))
    values = (raw + raw.T) / 2
    np.fill_diagonal(values, 0.0)
    dm = DissimilarityMap(taxa=tuple("uvwxyz"), values=values)
    for style in ("phylip", "json"):
        again = parse_distance_matrix(format_distance_matrix(dm, style))
        assert again.taxa == dm.taxa
        assert np.abs(again.values - dm.values).max() < 1e-6


def test_asymmetric_matrix_error_names_entries():
    text = "2\na 0 1.5\nb 1.4 0\n"
    with pytest.raises(ValueError, match=r"d\[a,b\].*d\[b,a\]"):
        parse_distance_matrix(text)


def test_nonzero_diagonal_rejected():
    with pytest.raises(ValueError, match="diagonal"):
        parse_distance_matrix("2\na 0.2 1\nb 1 0\n")


def test_phylip_writer_refuses_labels_the_reader_would_split():
    for label in ("a b", "", "a\tb", " a"):
        dm = DissimilarityMap((label, "c", "d"), np.zeros((3, 3)))
        with pytest.raises(ValueError) as caught:
            format_distance_matrix(dm, "phylip")
        assert str(caught.value).startswith(f"taxon label {label!r} cannot be written")
        again = parse_distance_matrix(format_distance_matrix(dm, "json"))
        assert again.taxa == dm.taxa


def test_json_readers_refuse_taxa_that_are_not_arrays():
    for taxa in ("abc", {"a": 1}, 3):
        with pytest.raises(ValueError, match="taxa must be a JSON array"):
            parse_distance_matrix(json.dumps({"taxa": taxa, "matrix": np.eye(3).tolist()}))
        with pytest.raises(ValueError, match="taxa must be a JSON array"):
            parse_m_dissimilarity(json.dumps({"taxa": taxa, "m": 3, "values": {}}))


def test_malformed_phylip_rejected():
    with pytest.raises(ValueError, match="taxon count"):
        parse_distance_matrix("a 0 1\nb 1 0\n")
    with pytest.raises(ValueError, match="rows"):
        parse_distance_matrix("3\na 0 1 1\nb 1 0 1\n")
    with pytest.raises(ValueError, match="non-numeric"):
        parse_distance_matrix("2\na 0 x\nb x 0\n")


# ---------------------------------------------------------------------------
# m-dissimilarity JSON


def test_m_dissimilarity_json_round_trip():
    tree = random_tree(3100, 6)
    md = m_dissimilarity(tree, 3)
    again = parse_m_dissimilarity(format_m_dissimilarity(md))
    assert again.taxa == md.taxa and again.m == 3
    assert again.values.tolist() == md.values.tolist()


def test_m_dissimilarity_json_validation():
    with pytest.raises(ValueError, match="taxa"):
        parse_m_dissimilarity('{"m": 3}')
    with pytest.raises(ValueError, match="missing value"):
        parse_m_dissimilarity(
            '{"taxa": ["a", "b", "c", "d"], "m": 3, "values": {"a,b,c": 1.0}}'
        )


def test_m_dissimilarity_reader_refuses_an_m_that_is_not_a_json_integer():
    values = {",".join(s): 1.0 for s in combinations("abcd", 3)}
    for m, shown in ((3.9, "3.9"), ("3", "'3'"), (True, "True"), (3.0, "3.0")):
        text = json.dumps({"taxa": list("abcd"), "m": m, "values": values})
        with pytest.raises(ValueError, match=f"m must be a JSON integer, got {shown}$"):
            parse_m_dissimilarity(text)
    text = json.dumps({"taxa": list("abcd"), "m": 3, "values": values})
    assert parse_m_dissimilarity(text).m == 3


def test_m_dissimilarity_reader_refuses_values_that_are_not_json_numbers():
    values = {",".join(s): 1.0 for s in combinations("abcd", 3)}
    cases = (("1.5", "'1.5'"), ("x", "'x'"), (True, "True"), (None, "None"), ([1.0], r"\[1.0\]"))
    for v, shown in cases:
        text = json.dumps({"taxa": list("abcd"), "m": 3, "values": {**values, "a,c,d": v}})
        with pytest.raises(
            ValueError, match=f"value for subset key 'a,c,d' must be a JSON number, got {shown}$"
        ):
            parse_m_dissimilarity(text)
    text = json.dumps({"taxa": list("abcd"), "m": 3, "values": {**values, "a,c,d": 2}})
    assert parse_m_dissimilarity(text).get("a", "c", "d") == 2.0


def test_m_dissimilarity_reader_refuses_a_subset_named_twice():
    values = {",".join(s): 1.0 for s in combinations("abcd", 3)}
    for key in ("c,b,a", "b,a,c"):
        text = json.dumps({"taxa": list("abcd"), "m": 3, "values": {**values, key: 5}})
        with pytest.raises(ValueError, match=f"key '{key}' names the subset 'a,b,c'"):
            parse_m_dissimilarity(text)


def test_json_integers_beyond_float_range_exit_2_naming_the_key_or_entry(tmp_path, capsys):
    huge = 10**400
    values = {",".join(s): 1 for s in combinations("abcd", 3)}
    mtext = json.dumps({"taxa": list("abcd"), "m": 3, "values": {**values, "a,b,d": huge}})
    matrix = (1 - np.eye(4, dtype=int)).tolist()
    matrix[2][3] = matrix[3][2] = huge
    dtext = json.dumps({"taxa": list("abcd"), "matrix": matrix})
    m_said = "value for subset key 'a,b,d' is an integer beyond float range"
    d_said = "matrix entry [2][3] is an integer beyond float range"
    with pytest.raises(ValueError) as caught:
        parse_m_dissimilarity(mtext)
    assert str(caught.value) == m_said
    with pytest.raises(ValueError) as caught:
        parse_distance_matrix(dtext)
    assert str(caught.value) == d_said
    for command, flag, text, said in (("mtree", "--input", mtext, m_said),
                                      ("fourpoint", "--distances", dtext, d_said)):
        path = tmp_path / f"{command}.json"
        path.write_text(text)
        assert main(["tree", command, flag, str(path)]) == 2
        assert capsys.readouterr().err == f"error: {said}\n"
    # integers that round to a finite float still read
    top = int(np.finfo(float).max)
    assert parse_m_dissimilarity(mtext.replace(str(huge), str(top))).get("a", "b", "d") == top
    assert parse_distance_matrix(dtext.replace(str(huge), str(10**307))).values[2, 3] == 1e307


def test_m_dissimilarity_writer_refuses_labels_with_commas():
    taxa = ("a,b", "c", "d", "e")
    md = keyed_m_map(taxa, 3, {frozenset(s): 1.0 for s in combinations(taxa, 3)})
    with pytest.raises(ValueError, match="taxon label 'a,b' cannot be written"):
        format_m_dissimilarity(md)


# ---------------------------------------------------------------------------
# FASTA


def test_fasta_round_trip():
    records = [("alpha", "ACGTACGT"), ("beta", "AC-TNCGT")]
    parsed = read_fasta(write_fasta(records, width=5))
    assert parsed == records


def test_fasta_uppercases_and_joins_lines():
    parsed = read_fasta(">x desc ignored\nacg\ntac\n")
    assert parsed == [("x", "ACGTAC")]


def test_fasta_errors():
    with pytest.raises(ValueError, match="no FASTA"):
        read_fasta("")
    with pytest.raises(ValueError, match="before any"):
        read_fasta("ACGT\n")
    with pytest.raises(ValueError, match="unnamed"):
        read_fasta(">\nACGT\n")


_ASCII_UPPER = {c: c - 32 for c in range(ord("a"), ord("z") + 1)}


def _loop_read_fasta(text):
    """The reader as one Python step per line: the reference the bulk
    reader must match, errors included."""
    records = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        if line.startswith(">"):
            name = line[1:].split()[0] if line[1:].split() else ""
            if not name:
                raise ValueError(f"unnamed FASTA record at line {lineno}")
            records.append((name, []))
        else:
            if not records:
                raise ValueError(f"sequence before any '>' header at line {lineno}")
            records[-1][1].append(line)
    if not records:
        raise ValueError("no FASTA records found")
    return [(name, "".join(chunks).translate(_ASCII_UPPER)) for name, chunks in records]


def _loop_write_fasta(records, width):
    lines = []
    for name, seq in records:
        lines.append(f">{name}")
        for start in range(0, len(seq), width):
            lines.append(seq[start:start + width])
    return "\n".join(lines) + "\n"


def _outcome(reader, text):
    try:
        return reader(text)
    except ValueError as exc:
        return f"ValueError: {exc}"


# every line break str.splitlines knows, and whitespace that strip() removes
_BREAKS = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
_PADS = ["", " ", "\t", "  \t", "\x1f", "\xa0", "\u3000"]


def _random_fasta_lines(g, valid: bool):
    """Lines of a FASTA text: headers (some with descriptions or non-ASCII
    names), sequence lines in both cases with non-ASCII letters, blank and
    padded lines; an invalid text may lead with a sequence line or hold a
    header with no name."""
    letters = list("ACGTNacgtn-") + (["ß", "ſ", "é", "X", ">", " "] if g.random() < 0.5 else [])
    lines = []
    if not valid and g.random() < 0.3:
        lines.append("AC")
    for r in range(int(g.integers(0 if not valid else 1, 5))):
        name = str(g.choice(["s", "taxon", "é", "ß", "a>b"])) + str(r)
        desc = str(g.choice(["", " desc", "\tmore words", " ß x"]))
        header = ">" + str(g.choice(["", " ", "\t"])) + name + desc
        if not valid and g.random() < 0.2:
            header = str(g.choice([">", "> ", ">\t", ">\xa0"]))
        lines.append(header)
        for _ in range(int(g.integers(0, 5))):
            if g.random() < 0.2:
                lines.append(str(g.choice(_PADS)))  # a blank line
                continue
            body = "".join(g.choice(letters, int(g.integers(1, 12))).tolist())
            if body.startswith(">"):
                body = "A" + body
            lines.append(str(g.choice(_PADS)) + body + str(g.choice(_PADS)))
    return lines


def test_read_fasta_matches_the_line_loop_on_every_line_break():
    g = rng(2828)
    for trial in range(600):
        lines = _random_fasta_lines(g, valid=trial % 3 != 0)
        breaks = ["\n"] * 3 + _BREAKS if trial % 2 else ["\n"]
        text = "".join(line + str(g.choice(breaks)) for line in lines)
        if g.random() < 0.3 and text:
            text = text[:-1]  # no final line break
        want = _outcome(_loop_read_fasta, text)
        assert _outcome(read_fasta, text) == want, repr(text)


@pytest.mark.parametrize("brk", _BREAKS)
def test_read_fasta_errors_name_the_line_the_loop_names(brk):
    cases = [
        "",
        brk * 3,
        f"{brk}  {brk}ACGT{brk}>a{brk}AC{brk}",
        f">a{brk}AC{brk}{brk}>{brk}GT{brk}",
        f">a{brk}AC{brk} \t{brk}>  {brk}>b{brk}",
        f">a{brk}AC{brk}>\xa0\u3000{brk}",
        f"{brk}{brk}\tac gt\t{brk}",
    ]
    for text in cases:
        want = _outcome(_loop_read_fasta, text)
        assert isinstance(want, str) and want.startswith("ValueError"), repr(text)
        assert _outcome(read_fasta, text) == want, repr(text)


def test_read_fasta_keeps_non_ascii_letters_and_names_as_given():
    text = ">ß x\nßſ\nacgt\n>é\n  éa  \n"
    assert read_fasta(text) == _loop_read_fasta(text) == [("ß", "ßſACGT"), ("é", "éA")]


@pytest.mark.parametrize("width", [1, 60, 70])
def test_write_fasta_bytes_equal_the_line_loop(width):
    g = rng(2829 + width)
    for length in sorted({0, 1, width - 1, width, width + 1, 3 * width}):
        ascii_seq = "".join(g.choice(list("ACGTN-"), length).tolist())
        wide_seq = "".join(g.choice(list("ACGTßſé"), length).tolist())
        records = [("a", ascii_seq), ("ß name", wide_seq), ("é", ascii_seq.lower())]
        text = write_fasta(records, width=width)
        assert text == _loop_write_fasta(records, width)
        assert text.encode("utf-8") == _loop_write_fasta(records, width).encode("utf-8")
    assert write_fasta([], width=width) == _loop_write_fasta([], width) == "\n"


@pytest.mark.parametrize("width", [0, -1, -70])
def test_write_fasta_refuses_a_width_below_one(width):
    with pytest.raises(ValueError, match=f"width must be at least 1, got {width}$"):
        write_fasta([("a", "ACGT")], width=width)


# ---------------------------------------------------------------------------
# parameter JSON and bundled data


def test_hmm_params_json_round_trip():
    h = HmmParams(
        trans=[[0.9, 0.1], [0.2, 0.8]],
        emit=[[0.7, 0.3], [0.4, 0.6]],
        init=[0.5, 0.5],
        labels=("exon", "intron"),
    )
    again = hmm_params_from_json(hmm_params_to_json(h))
    assert (again.trans == h.trans).all()
    assert again.labels == ("exon", "intron")
    payload = json.loads(hmm_params_to_json(h))
    assert set(payload) == {"k", "l", "S", "T", "init", "mode", "labels"}


def test_bundled_files_exist():
    assert read_bundled("vertebrates10.phy").startswith("10")
    assert read_bundled("vertebrates10.nwk").strip().endswith(";")
    assert len(read_bundled("motif_context.fa")) > 10000
    assert read_bundled("toy_neutral_sites.fa").startswith(">alpha")
