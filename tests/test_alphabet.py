"""The nucleotide table: codes against a plain-dict reference, and the
error every sequence consumer reports from it."""

import numpy as np
import pytest

from conftest import rng
from phylokit.alphabet import NUCLEOTIDES, encode
from phylokit.codonmodel import codon_counts_from_sequence
from phylokit.pairhmm import (
    ScoringScheme,
    pair_probability,
    parametric_polygon,
    scoring_scheme_params,
    viterbi_alignment,
)
from phylokit.pipeline import AlignedFasta

_REFERENCE = {c: i for i, c in enumerate("ACGT")} | {c: i for i, c in enumerate("acgt")}
_GAPPED = _REFERENCE | {"N": 4, "n": 4, "-": 5}


def _reference_encode(text: str, gaps: bool):
    """(codes, None) or (None, first bad position), by dict lookup."""
    table = _GAPPED if gaps else _REFERENCE
    for pos, ch in enumerate(text):
        if ch not in table:
            return None, pos
    return [table[ch] for ch in text], None


def test_encode_matches_a_dict_lookup_on_random_strings():
    g = rng(1601)
    pool = list("ACGTacgtNn-X?é")
    for case in range(2000):
        length = int(g.integers(0, 40))
        # mostly valid strings, so that long encodings are checked too
        weights = np.ones(len(pool)) if case % 2 else np.r_[np.full(11, 20.0), 1, 1, 1]
        text = "".join(g.choice(pool, size=length, p=weights / weights.sum()))
        for gaps in (False, True):
            want, bad = _reference_encode(text, gaps)
            if bad is None:
                codes = encode(text, gaps=gaps)
                assert codes.dtype == np.uint8
                assert codes.tolist() == want, (text, gaps)
            else:
                message = f"invalid nucleotide {text[bad]!r} at position {bad}"
                with pytest.raises(ValueError) as info:
                    encode(text, gaps=gaps)
                assert str(info.value) == message, (text, gaps)


def test_encode_edges():
    assert NUCLEOTIDES == "ACGT"
    assert encode("").tolist() == []
    assert encode("tgca").tolist() == [3, 2, 1, 0]
    assert encode("N-n", gaps=True).tolist() == [4, 5, 4]
    for text, pos in (("AN", 1), ("A-", 1), ("AC G", 2), ("\x00", 0), ("A?", 1)):
        with pytest.raises(ValueError) as info:
            encode(text)
        assert str(info.value) == f"invalid nucleotide {text[pos]!r} at position {pos}"
    # non-ASCII characters in one byte, in two and past the 16-bit range
    for ch in ("ÿ", "Ł", "\U0001F600"):
        with pytest.raises(ValueError) as info:
            encode("acg" + ch + "t" + ch, gaps=True)
        assert str(info.value) == f"invalid nucleotide {ch!r} at position 3"


def test_consumers_name_the_sequence_or_record_and_the_position():
    params = scoring_scheme_params(ScoringScheme(mismatch=1.0, gap=1.0))
    for call in (
        lambda s1, s2: pair_probability(params, s1, s2),
        lambda s1, s2: viterbi_alignment(params, s1, s2),
        parametric_polygon,
    ):
        with pytest.raises(ValueError) as info:
            call("ACGT", "acéx")
        assert str(info.value) == "invalid nucleotide 'é' at position 2 of the second sequence"
        with pytest.raises(ValueError) as info:
            call("ACXT", "ACGT")
        assert str(info.value) == "invalid nucleotide 'X' at position 2 of the first sequence"
    with pytest.raises(ValueError) as info:
        codon_counts_from_sequence("ATGaéT")
    assert str(info.value) == "invalid nucleotide 'é' at position 4"
    with pytest.raises(ValueError) as info:  # the length check comes first
        codon_counts_from_sequence("ATGé")
    assert str(info.value) == "sequence length 4 is not divisible by 3"
    with pytest.raises(ValueError) as info:
        AlignedFasta(records=(("a", "ACGX"), ("b", "ACGT")))
    assert str(info.value) == "record 'a': invalid nucleotide 'X' at position 3"
    with pytest.raises(ValueError) as info:
        AlignedFasta(records=(("a", "ACGT"), ("b", "nñ-t")))
    assert str(info.value) == "record 'b': invalid nucleotide 'ñ' at position 1"
