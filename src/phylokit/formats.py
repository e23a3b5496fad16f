"""File formats: Newick trees, square PHYLIP / JSON distance matrices,
FASTA records, JSON parameter files, and access to the bundled data
files.
"""

from __future__ import annotations

import json
import math
import re
from importlib import resources
from itertools import combinations

import numpy as np

from .alphabet import ASCII_UPPER
from .hmm import HmmParams
from .pairhmm import PairHmmParams
from .trees import PhyloTree
from .treespace import DissimilarityMap, MDissimilarityMap, _subset_count


# ---------------------------------------------------------------------------
# Newick

# A label is a nonempty run of any characters but these; whitespace before a
# label, a length or a punctuation mark is skipped.
_NOT_IN_LABEL = r":,()\[\];' \t\n\r"
_LABEL = re.compile(rf"[ \t\n\r]*([^{_NOT_IN_LABEL}]*)")
_NON_LABEL = re.compile(f"[{_NOT_IN_LABEL}]")
_LENGTH = re.compile(r"[ \t\n\r]*(?::[ \t\n\r]*([^,()\[\];]*))?")
_MARK = re.compile(r"[ \t\n\r]*(.?)", re.DOTALL)  # "" at the end of the text
_NEWICK_LENGTH = "%.6f"


def _fail(message: str, at: int):
    raise ValueError(f"{message} at character {at}")


def parse_newick(text: str) -> PhyloTree:
    """Parse one Newick tree.

    Branch lengths default to 0; internal-node labels are accepted and
    ignored.  An empty group ``()`` is an unlabeled leaf, the form
    :func:`emit_newick` writes for one.  Malformed input raises a
    ValueError that names the character offset.  A rooted two-child
    top level is kept as a degree-2 node; it subdivides the root edge
    without changing the unrooted tree.
    """
    tree = PhyloTree()
    open_nodes: list[int] = []  # internal nodes whose ')' is still ahead
    node, pos = None, 0  # node: the subtree just read, before its length
    while True:
        if node is None:
            mark = _MARK.match(text, pos)
            if mark[1] == "(":
                pos = mark.end()
                close = _MARK.match(text, pos)
                if close[1] != ")":
                    open_nodes.append(tree.add_node())
                    continue
                node, pos = tree.add_node(), close.end()  # "()": an unlabeled leaf
            else:
                label = _LABEL.match(text, pos)
                pos = label.end()
                if not label[1]:
                    _fail("expected a leaf label" if mark[1] else
                          "unexpected end of input", pos)
                try:
                    node = tree.add_node(label=label[1])
                except ValueError as exc:
                    _fail(str(exc), pos)
        length = _LENGTH.match(text, pos)
        pos = length.end()
        try:
            value = 0.0 if length[1] is None else float(length[1].strip())
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            _fail(f"invalid branch length {length[1].strip()!r}", length.start(1))
        if not open_nodes:  # the root's length is tolerated and dropped
            break
        tree.add_edge(open_nodes[-1], node, max(value, 0.0))
        mark = _MARK.match(text, pos)
        pos = mark.end()
        if mark[1] == ",":
            node = None
        elif mark[1] == ")":
            pos = _LABEL.match(text, pos).end()  # optional internal label, discarded
            node = open_nodes.pop()
        else:
            _fail(f"expected ')', found {mark[1]!r}" if mark[1] else
                  "unexpected end of input", mark.start(1))
    end = _MARK.match(text, pos)
    if end[1] == ";":
        end = _MARK.match(text, end.end())
        if end[1]:
            _fail("trailing characters after tree", end.start(1))
    elif end[1]:
        _fail(f"unexpected {end[1]!r}", end.start(1))
    if tree.degree(node) == 1 and not tree.is_leaf(node):
        raise ValueError("root has a single child; not a valid unrooted tree")
    if len(tree.taxa) < 2:
        raise ValueError("tree must have at least two leaves")
    return tree


def emit_newick(tree: PhyloTree) -> str:
    """Deterministic Newick text: degree-2 nodes are suppressed, the
    tree is written from the internal node next to the alphabetically
    first taxon, children are ordered by their smallest descendant
    taxon, and lengths carry six decimals."""
    collapsed = tree.suppress_unifurcations()
    taxa = collapsed.taxa
    if len(taxa) < 2:
        raise ValueError("tree must have at least two leaves")
    if not taxa[0] or _NON_LABEL.search("".join(taxa)):  # one scan for all labels
        bad = next(t for t in taxa if not t or _NON_LABEL.search(t))
        raise ValueError(
            f"taxon label {bad!r} cannot be written as Newick: a label needs a "
            "character and takes no whitespace or any of :,()[];'"
        )
    if collapsed.num_nodes == 2:
        a, b = taxa
        ln = collapsed.edge_length(collapsed.node_of(a), collapsed.node_of(b))
        return f"({a}:{_NEWICK_LENGTH % ln},{b}:{_NEWICK_LENGTH % 0.0});"

    first = collapsed.node_of(taxa[0])
    root = next(iter(collapsed.neighbors(first)))
    out: list[str] = []
    left: list[list[int]] = []  # [open node, children unwritten], root first
    for node, kids in collapsed.children_from(root).items():  # preorder
        if kids:
            out.append("(")
            left.append([node, len(kids)])
            continue
        out.append(collapsed.label_of(node) if collapsed.is_leaf(node) else "()")
        while left:  # node's text is complete: write its length
            out.append(f":{_NEWICK_LENGTH % collapsed.edge_length(left[-1][0], node)}")
            left[-1][1] -= 1
            if left[-1][1]:
                out.append(",")
                break
            out.append(")")
            node = left.pop()[0]
    out.append(";")
    return "".join(out)


# ---------------------------------------------------------------------------
# distance matrices


def _json_taxa(data) -> tuple[str, ...]:
    taxa = data["taxa"]
    if not isinstance(taxa, list):
        raise ValueError(f"taxa must be a JSON array, not {type(taxa).__name__}")
    return tuple(str(t) for t in taxa)


def _fits_float(v: int | float) -> bool:
    """Whether ``float(v)`` returns rather than raising ``OverflowError``."""
    try:
        float(v)
    except OverflowError:
        return False
    return True


def parse_distance_matrix(text: str) -> DissimilarityMap:
    """Square PHYLIP or JSON ({"taxa": [...], "matrix": [[...]]})
    distance matrix.  Must be symmetric within 1e-9 with a zero
    diagonal; violations are reported with the offending entries."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        data = json.loads(text)
        try:
            taxa = _json_taxa(data)
            matrix = np.array(data["matrix"], dtype=float)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"distance JSON needs taxa and matrix: {exc}") from None
        except OverflowError:  # a JSON integer beyond float range
            where = next(
                (f" [{i}][{j}]" for i, row in enumerate(data["matrix"]) if type(row) is list
                 for j, v in enumerate(row) if type(v) is int and not _fits_float(v)),
                "",
            )
            raise ValueError(f"matrix entry{where} is an integer beyond float range") from None
        return DissimilarityMap(taxa=taxa, values=matrix)

    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("empty distance matrix")
    try:
        n = int(lines[0].split()[0])
    except ValueError:
        raise ValueError(
            f"first line must give the taxon count, got {lines[0]!r}"
        ) from None
    if len(lines) != n + 1:
        raise ValueError(f"expected {n} matrix rows, found {len(lines) - 1}")
    taxa, rows = [], []
    for line in lines[1:]:
        fields = line.split()
        if len(fields) != n + 1:
            raise ValueError(
                f"row {fields[0] if fields else '?'!r} needs a name and {n} values"
            )
        taxa.append(fields[0])
        try:
            rows.append([float(v) for v in fields[1:]])
        except ValueError:
            raise ValueError(f"non-numeric entry in row {fields[0]!r}") from None
    return DissimilarityMap(taxa=tuple(taxa), values=np.array(rows))


def format_distance_matrix(dm: DissimilarityMap, style: str = "phylip") -> str:
    """Square PHYLIP or JSON text that :func:`parse_distance_matrix`
    reads back; PHYLIP rows are split on whitespace, so a PHYLIP label
    that is empty or holds whitespace is refused."""
    if style == "phylip":
        bad = [t for t in dm.taxa if t.split() != [t]]
        if bad:
            raise ValueError(
                f"taxon label {bad[0]!r} cannot be written as PHYLIP: a label "
                "needs a character and takes no whitespace"
            )
        lines = [str(dm.size)]
        for i, taxon in enumerate(dm.taxa):
            row = " ".join(f"{v:.6f}" for v in dm.values[i])
            lines.append(f"{taxon:<10s} {row}")
        return "\n".join(lines) + "\n"
    if style == "json":
        return json.dumps(
            {"taxa": list(dm.taxa), "matrix": dm.values.tolist()}, indent=2
        )
    raise ValueError(f"unknown style {style!r}")


# ---------------------------------------------------------------------------
# m-dissimilarity maps (JSON)


def parse_m_dissimilarity(text: str) -> MDissimilarityMap:
    """JSON m-subset maps, {"taxa": [...], "m": 3, "values": {"a,b,c": 1.25, ...}}:
    one JSON number per m-subset of the taxa, under its comma-joined key."""
    data = json.loads(text)
    try:
        taxa = _json_taxa(data)
        m = data["m"]
        if type(m) is not int:  # not a float, a string or a bool
            raise ValueError(f"m must be a JSON integer, got {m!r}")
        _subset_count(taxa, m)
        values = {}
        for key, v in data["values"].items():
            if type(v) not in (int, float):  # not a string, a bool, null or a list
                raise ValueError(f"value for subset key {key!r} must be a JSON number, got {v!r}")
            subset = frozenset(key.split(","))
            if subset in values:
                raise ValueError(
                    f"key {key!r} names the subset {','.join(sorted(subset))!r} "
                    "a second time"
                )
            if not _fits_float(v):
                raise ValueError(f"value for subset key {key!r} is an integer beyond float range")
            values[subset] = float(v)
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"m-dissimilarity JSON needs taxa, m, values: {exc}") from None
    try:  # the map's layout: one value per subset, in combinations order
        ordered = [values.pop(frozenset(s)) for s in combinations(taxa, m)]
    except KeyError as exc:
        raise ValueError(f"missing value for subset {sorted(exc.args[0])}") from None
    if values:  # keys left over name no m-subset of the taxa
        raise ValueError(f"bad subset key {sorted(next(iter(values)))}")
    return MDissimilarityMap(taxa=taxa, m=m, values=ordered)


def format_m_dissimilarity(md: MDissimilarityMap) -> str:
    """The JSON that :func:`parse_m_dissimilarity` reads back; a taxon
    label holding ',' would be split by that reader, so it is refused."""
    bad = [t for t in md.taxa if "," in t]
    if bad:
        raise ValueError(
            f"taxon label {bad[0]!r} cannot be written as an m-dissimilarity "
            "key: subset keys join labels with ','"
        )
    keys = (",".join(sorted(s)) for s in combinations(md.taxa, md.m))
    values = dict(sorted(zip(keys, md.values.tolist())))  # the keys are distinct
    return json.dumps({"taxa": list(md.taxa), "m": md.m, "values": values}, indent=2)


# ---------------------------------------------------------------------------
# FASTA


#: the line breaks ``str.splitlines`` knows besides "\n"
_OTHER_BREAKS = "\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"


def _sequence(block: str) -> str:
    """The stripped lines of ``block`` run together, uppercased in ASCII
    letters only."""
    if block.isascii() and not any(c in block for c in " \t\x1f"):
        return block.replace("\n", "").upper()  # "\n" is its only whitespace
    return "".join(map(str.strip, block.split("\n"))).translate(ASCII_UPPER)


def read_fasta(text: str) -> list[tuple[str, str]]:
    """(name, sequence) records; names are the first whitespace-separated
    token after '>'.  Lines are those of ``str.splitlines`` and are
    stripped; a header is a line that then starts with '>'.  Only ASCII
    letters are uppercased, so that an error names a character as given."""
    if any(c in text for c in _OTHER_BREAKS):
        text = "\n".join(text.splitlines())  # the same lines, one break
    headers = []  # (line start, '>' position, line end) of each header line
    at = text.find(">")
    while at >= 0:
        start = text.rfind("\n", 0, at) + 1
        end = text.find("\n", at)
        end = len(text) if end < 0 else end
        if not text[start:at].strip():  # the '>' opens its stripped line
            headers.append((start, at, end))
        at = text.find(">", end)  # a later '>' on this line opens nothing
    head = text[:headers[0][0]] if headers else text
    if head.strip():
        lineno = head.count("\n", 0, len(head) - len(head.lstrip())) + 1
        raise ValueError(f"sequence before any '>' header at line {lineno}")
    if not headers:
        raise ValueError("no FASTA records found")
    records = []
    for (_, at, end), (stop, _, _) in zip(headers, headers[1:] + [(len(text), 0, 0)]):
        name = text[at + 1:end].split()
        if not name:
            lineno = text.count("\n", 0, at) + 1
            raise ValueError(f"unnamed FASTA record at line {lineno}")
        records.append((name[0], _sequence(text[end + 1:stop])))
    return records


def write_fasta(records, width: int = 70) -> str:
    """FASTA text: each record's header, then its sequence in lines of
    ``width`` characters."""
    if width < 1:
        raise ValueError(f"FASTA line width must be at least 1, got {width!r}")
    parts = []
    for name, seq in records:
        parts.append(f">{name}\n")
        if not seq.isascii():  # break by characters, not bytes
            parts.extend(seq[i:i + width] + "\n" for i in range(0, len(seq), width))
            continue
        full = len(seq) - len(seq) % width
        rows = np.empty((full // width, width + 1), dtype=np.uint8)
        rows[:, :width] = np.frombuffer(seq.encode("ascii"), np.uint8, full).reshape(-1, width)
        rows[:, width] = ord("\n")
        parts.append(rows.tobytes().decode("ascii"))
        if full < len(seq):
            parts.append(seq[full:] + "\n")
    return "".join(parts) if parts else "\n"  # no records: one empty line


# ---------------------------------------------------------------------------
# parameter files


def hmm_params_from_json(text: str) -> HmmParams:
    return HmmParams.from_dict(json.loads(text))


def hmm_params_to_json(params: HmmParams) -> str:
    return json.dumps(params.to_dict(), indent=2)


def pair_params_from_json(text: str) -> PairHmmParams:
    return PairHmmParams.from_dict(json.loads(text))


# ---------------------------------------------------------------------------
# bundled data


def read_bundled(name: str) -> str:
    """Contents of a file in the package's data directory."""
    return (resources.files("phylokit") / "data" / name).read_text()


def bundled_distance_matrix() -> DissimilarityMap:
    """The ten-vertebrate pairwise distance matrix shipped with the
    package (fourfold-degenerate-site estimates)."""
    return parse_distance_matrix(read_bundled("vertebrates10.phy"))


def bundled_reference_tree() -> PhyloTree:
    """The ten-vertebrate reference tree shipped with the package."""
    return parse_newick(read_bundled("vertebrates10.nwk"))
