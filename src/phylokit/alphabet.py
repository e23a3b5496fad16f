"""The nucleotide alphabet and its one encoding.

Every sequence the toolkit reads is checked and encoded here, by one
256-entry byte lookup: A, C, G, T in either case are 0-3, and with
``gaps=True`` N in either case is 4 and the gap character "-" is 5.
"""

from __future__ import annotations

import numpy as np

NUCLEOTIDES = "ACGT"
#: ``str.translate`` table for a-z only; ``str.upper`` maps "ß" to "SS"
ASCII_UPPER = {c: c - 32 for c in range(ord("a"), ord("z") + 1)}


def _table(letters: str) -> bytes:
    table = bytearray(b"\xff" * 256)  # 255: not in the alphabet
    for code, letter in enumerate(letters):
        table[ord(letter)] = table[ord(letter.lower())] = code
    return bytes(table)


_TABLES = (_table(NUCLEOTIDES), _table(NUCLEOTIDES + "N-"))  # by ``gaps``


def encode(text: str, gaps: bool = False) -> np.ndarray:
    """The uint8 codes of ``text``, as a read-only array.  Any other
    character raises ``ValueError`` naming the first one as given and
    its 0-based position; a non-ASCII character counts as one position."""
    codes = text.encode("ascii", "replace").translate(_TABLES[gaps])
    pos = codes.find(255)
    if pos >= 0:
        raise ValueError(f"invalid nucleotide {text[pos]!r} at position {pos}")
    return np.frombuffer(codes, np.uint8)
