"""Golden words: SHA-256 digests of the exact words both pipelines emit.

The corpora are seeded, so any change in the letters, their order, the
per-phase counts or the recorded norms changes a digest.  A refactor that
keeps the words letter for letter keeps every digest.
"""

import hashlib
import itertools
import random

import pytest

from cayleynav.core import MatFp, MatZ, determinant_fp
from cayleynav.modp import random_sl_fp, word_for_modp
from cayleynav.normalform import (
    column_clear_phase,
    normal_form_result,
    sign_fix_phase,
    upper_clear_phase,
)


def digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def unimodular_corpus(n: int):
    """Seeded matrices in SL_n(Z): row operations at three sizes, then one upper triangular."""
    rng = random.Random(f"golden:{n}")
    out = []
    for ops, spread in ((6, 3), (40, 9), (120, 2**20)):
        rows = [[int(r == c) for c in range(n)] for r in range(n)]
        for _ in range(ops):
            i, j = rng.sample(range(n), 2)
            q = rng.randint(-spread, spread)
            rows[i] = [x + q * y for x, y in zip(rows[i], rows[j])]
        out.append(MatZ.from_rows(rows))
    # upper triangular with two negative pivots: no LLL, a non-empty sign fix
    rows = [[(rng.randint(-50, 50) if c > r else int(r == c)) for c in range(n)] for r in range(n)]
    rows[0] = [-x for x in rows[0]]
    rows[n - 1] = [-x for x in rows[n - 1]]
    out.append(MatZ.from_rows(rows))
    return out


GOLDEN_Z = {
    3: (
        "1c980d253d0b827c76b20b44a72d5421fdf1b44676d76c7435deb53840db30de",
        "c8a24a20cd9d440683e33c4f88b2b96524c1e5c3b9cb88ea9b3db56875d927e3",
    ),
    4: (
        "55192faf2762709fcaf4ee637fe630c283055de8de96fd4b731dc3177c611422",
        "4eee6b419dcb5c4265a8d473e399841075abb403afa237fe10738b860bcc3bcc",
    ),
    5: (
        "e0d6ebdb4a7753348951056ffd7fe8c449ab6759dbee778bbbcb3b734c8f4e86",
        "509d4a25ff811bc50cf9f9d8e50f1df0e18bc8307030e9a33dbcf0c1ce7dcfd3",
    ),
    6: (
        "da89c50d05f091d51fb58566f24c30e343cf196793a652c658ac6fffa92627be",
        "91236d7680a915a42ee674ae8515003660737f97b4b5225a92253ff0a2684931",
    ),
    7: (
        "ea1b60b0127b9913468f3235e3094f296a1941c7c8e1d698cccd14ea509a202a",
        "c417537506faca92e08d879bbcf7b9e664cb24735d4655a2320de48c4bea17e4",
    ),
    8: (
        "157b535ee01872f2ec04d3abbb596fcd3e7e4b6e4bc61341e8691b13e7a3f17b",
        "e66ec6f49794dc6a97c763c2f5478eed8aa3735326ea5949b5702eec76b09947",
    ),
}


@pytest.mark.parametrize("n", sorted(GOLDEN_Z))
def test_golden_normal_form_words(n):
    words, diags = [], []
    for m in unimodular_corpus(n):
        r = normal_form_result(m)
        words.append(r.word.tokens())
        diags.append(f"{r.phase_lengths} {r.column_norms} {r.peak_norm}")
    # the phase wrappers on their own: column clearing without LLL first
    m = unimodular_corpus(n)[1]
    for col in range(1, n):
        m, w = column_clear_phase(m, col)
        words.append(w.tokens())
    for phase in (sign_fix_phase, upper_clear_phase):
        m, w = phase(m)
        words.append(w.tokens())
    assert m == MatZ.identity(n)
    assert (digest(words), digest(diags)) == GOLDEN_Z[n]


GOLDEN_SL3_F2 = "bbdf1c3c2fc9398e9b2485ef573828e05280da8dc7ed18ffaa0e2a95beea73ac"


def test_golden_word_for_modp_all_of_sl3_f2():
    words = []
    for bits in itertools.product((0, 1), repeat=9):
        m = MatFp.from_rows([bits[0:3], bits[3:6], bits[6:9]], 2)
        if determinant_fp(m) == 1:
            words.append(word_for_modp(m).tokens())
    assert len(words) == 168
    assert digest(words) == GOLDEN_SL3_F2


GOLDEN_FP = {
    (3, 101): "b0e7582f26e77a8ca927f7c7be498bff5f8ca234110dc9926d8ac807efc6fb90",
    (4, 10007): "ccc7301233af40f0a8910a15ce5d10c27d9249fe7101494ca9cb984cc6f4621a",
    (5, 2**31 - 1): "3543c873ba403fdafa0c2f0750362b0c3077f6b19ece976fd31596eee0de4f8f",
    (6, 2**61 - 1): "53cd5936017ea12675dd3b4f5566acc6cbf5a8d85d78a3ce283bc8bc7a6050ad",
}


@pytest.mark.parametrize("n,p", sorted(GOLDEN_FP))
def test_golden_word_for_modp_random(n, p):
    rng = random.Random(f"golden:{n}:{p}")
    words = [word_for_modp(random_sl_fp(n, p, rng)).tokens() for _ in range(12)]
    assert digest(words) == GOLDEN_FP[(n, p)]
