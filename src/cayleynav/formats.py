"""Plain-text input for matrices and words, text and JSON output for words.

Matrix text: first line "N" (integer matrix) or "N p" (mod-p matrix),
then N lines of N space-separated integers.

Word text: whitespace-separated tokens e(i,j), e(i,j)^-1, A, A^-1, B, B^-1.
The token stream does not carry the dimension; callers supply it.

Word JSON: {"n": N, "alphabet": ..., "letters": [...]}, each letter
{"i": i, "j": j, "e": +-1} or {"sym": "A" | "B", "e": +-1}.
"""

import re

from .core import ELEMENTARY, MatFp, MatZ, Word, abletter, eletter
from .errors import ParseError

_TOKEN_RE = re.compile(r"^(?:e\((\d+),(\d+)\)|([AB]))(\^-1)?$")


def parse_word_text(text: str, n: int) -> Word:
    """Parse a token stream into a Word of dimension n."""
    letters = []
    for tok in text.split():
        m = _TOKEN_RE.match(tok)
        if not m:
            raise ParseError(f"bad word token {tok!r}")
        e = -1 if m.group(4) else 1
        try:
            if m.group(3):
                letters.append(abletter(m.group(3), e))
            else:
                letters.append(eletter(int(m.group(1)), int(m.group(2)), e))
        except Exception as exc:
            raise ParseError(f"bad word token {tok!r}: {exc}") from exc
    try:
        return Word(n, tuple(letters))
    except Exception as exc:
        raise ParseError(f"invalid word: {exc}") from exc


def parse_matrix_text(text: str) -> MatZ | MatFp:
    """Parse the matrix text format; the header decides Z versus F_p.

    Malformed text raises ParseError; a modulus that is not prime is a
    domain error and raises DomainError, as it does everywhere else.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError("empty matrix input")
    header = lines[0].split()
    if len(header) not in (1, 2):
        raise ParseError(f"matrix header must be 'N' or 'N p', got {lines[0]!r}")
    try:
        n = int(header[0])
        p = int(header[1]) if len(header) == 2 else None
    except ValueError as exc:
        raise ParseError(f"bad matrix header {lines[0]!r}") from exc
    if len(lines) != n + 1:
        raise ParseError(f"expected {n} matrix rows, found {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        try:
            row = [int(x) for x in ln.split()]
        except ValueError as exc:
            raise ParseError(f"bad matrix row {ln!r}") from exc
        if len(row) != n:
            raise ParseError(f"expected {n} entries per row, got {len(row)}")
        rows.append(row)
    if p is None:
        return MatZ.from_rows(rows)
    return MatFp.from_rows(rows, p)


def word_to_json(w: Word) -> dict:
    """The JSON object of a word, as in the module docstring."""
    letters = []
    for l in w.letters:
        if l.alphabet == ELEMENTARY:
            letters.append({"i": l.i, "j": l.j, "e": l.e})
        else:
            letters.append({"sym": l.sym, "e": l.e})
    return {"n": w.n, "alphabet": w.alphabet or ELEMENTARY, "letters": letters}
