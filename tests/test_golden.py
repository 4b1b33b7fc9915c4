"""Golden words: SHA-256 digests of the exact words both pipelines emit,
and of the exact outputs of the oracles (BFS and A/B rewriting).

The corpora are seeded, so any change in the letters, their order, the
per-phase counts or the recorded norms changes a digest.  A refactor that
keeps the words letter for letter keeps every digest.
"""

import hashlib
import itertools
import random

import pytest

from cayleynav.abwords import rewrite_word_ab
from cayleynav.bfs import bfs_diameter, bfs_distance_map
from cayleynav.compression import _fused_template, compress_power
from cayleynav.core import AB, ELEMENTARY, MatFp, MatZ, Word, determinant_fp, eletter
from cayleynav.euclid import accelerated_reduce
from cayleynav.modp import random_sl_fp, word_for_modp
from cayleynav.normalform import normal_form_result
from cayleynav.rowreduce import RowReducer


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
    # upper triangular with two negative pivots: no LLL, one sign gadget
    rows = [[(rng.randint(-50, 50) if c > r else int(r == c)) for c in range(n)] for r in range(n)]
    rows[0] = [-x for x in rows[0]]
    rows[n - 1] = [-x for x in rows[n - 1]]
    out.append(MatZ.from_rows(rows))
    return out


# upper clearing runs right to left over Z: the upper triangular case, which
# skips LLL, takes 76/203/239/351/390/738 letters for N = 3..8 with peaks at
# most 50, and the hand-run upper phase 343/462/543/913/1154/1205.  LLL spells
# each run of size reductions on one row as one common-target batch, and
# column clearing lands every pivot as 1: the four words take
# 9980/16049/16487/18626/17742/26891 letters for N = 3..8
GOLDEN_Z = {
    3: (
        "fc872adbd2d58d846a465fa1357349209a7299eef90909705900ff9c4ad24a57",
        "1d40cbd78bd083dd69f63bab59e0c7c5c3c1c12d593970357019465e1797fcbe",
    ),
    4: (
        "694e6f75318595dafeb8f6529fc966e5b85e3549fc954f9586fc37b602029824",
        "8784f261a6902a95701c938fa0386ccfa757c15beae7528a6ba306d3be81f3fe",
    ),
    5: (
        "0c979d99adce3c33e483ff7c407c0ca45263dcaa96cd4807ee1e4cce2ed6551b",
        "a97b6532f2af9b03855901948685c9c0d3ad93f80a01607a73929133403bf51a",
    ),
    6: (
        "3e28278bd49f1e8bfd1b25eaf53bea2d2691c3855c1bc6679178c0e0bc4eed36",
        "e61e14f85852781a373e120029b3f46e62a24c48c0566ecefa4959cf2f4236b1",
    ),
    7: (
        "205ca77e9f92ab2189ebb76d3a9c48dbc37b98f737097023ad5399582b611dac",
        "1b511c7bc3bbd4fe1882ae337ed3ecb598d31787432b0e6ec55b04c83fe6c850",
    ),
    8: (
        "a31a807e3362617301a2aaf1009b7f4db36abaf24891be4c25519821ed9994b8",
        "d56340879dc4b027b40466185b67e655ad634a940450fbe3b7add5a9ca16090b",
    ),
}


@pytest.mark.parametrize("n", sorted(GOLDEN_Z))
def test_golden_normal_form_words(n):
    words, diags = [], []
    for m in unimodular_corpus(n):
        r = normal_form_result(m)
        words.append(r.word.tokens())
        diags.append(f"{r.phase_lengths} {r.column_norms} {r.peak_norm}")
    # the phases on their own, column clearing without LLL first: one
    # engine, its output sliced per phase and each slice inverted into
    # that phase's premultiplier word
    red = RowReducer([list(r) for r in unimodular_corpus(n)[1].rows])
    phases = [(RowReducer.clear_column, col) for col in range(1, n)]
    phases.append((RowReducer.clear_upper,))
    for run, *args in phases:
        start = len(red.out)
        run(red, *args)
        words.append(Word(n, tuple(red.out[start:])).inverse().tokens())
    red.check_identity()
    assert (digest(words), digest(diags)) == GOLDEN_Z[n]


GOLDEN_SL3_F2 = "76eac2ec9b4c87223d5e4225eff491647c9334907a5108acbf1372a809757a64"


def test_golden_word_for_modp_all_of_sl3_f2():
    words = []
    for bits in itertools.product((0, 1), repeat=9):
        m = MatFp.from_rows([bits[0:3], bits[3:6], bits[6:9]], 2)
        if determinant_fp(m) == 1:
            words.append(word_for_modp(m).tokens())
    assert len(words) == 168
    assert digest(words) == GOLDEN_SL3_F2


# Gauss-Jordan over Z/p (each pivot from one coprime pair, each column one
# batch above and below): letter totals per corpus 1311 -> 1323, 5803 ->
# 4998, 20419 -> 15695 and 52051 -> 38074
GOLDEN_FP = {
    (3, 101): "46b090d061492237ad975ff0159fc1330223bfe9b24a9c2ec165864c08cb4860",
    (4, 10007): "879cf528c709606fb57927d5627de2e1b6cecb91a3c7934caf8f78678955e8fd",
    (5, 2**31 - 1): "a633e856f2c9f793cdd1274283582dc0126a3b280ad360a398747a031a249816",
    (6, 2**61 - 1): "b662a054ee6819b6eb1f8cc8798a7e47b7c0a6a0128d8ff92c8b1533255e37d1",
}


def fp_corpus(n: int, p: int):
    rng = random.Random(f"golden:{n}:{p}")
    return [random_sl_fp(n, p, rng) for _ in range(12)]


@pytest.mark.parametrize("n,p", sorted(GOLDEN_FP))
def test_golden_word_for_modp_random(n, p):
    words = [word_for_modp(m).tokens() for m in fp_corpus(n, p)]
    assert digest(words) == GOLDEN_FP[(n, p)]


# ---------------------------------------------------------------- chunks
# compress_power on both sides of the plain/template crossover (|m| <= 60),
# at three random magnitudes, for both signs, with explicit and default aux.


def compress_power_spread():
    rng = random.Random("golden:compress")
    cases = []
    for n in (3, 5, 8):
        i, j, aux = rng.sample(range(1, n + 1), 3)
        exps = list(range(61))
        for bound, count in ((2**61, 6), (10**40, 6), (10**400, 2)):
            exps += [rng.randrange(bound) for _ in range(count)]
        for a in (aux, None):
            for m in exps:
                cases += [(n, i, j, m, a), (n, i, j, -m, a)]
    return cases


GOLDEN_COMPRESS_POWER = "fdb6a65112655bc53bce1881cc21bb0f32f307d4f7c890ac6a0b367bfcfc6dda"
GOLDEN_FIB_POWER = "2dc9648e538951108c9887b09779532e0fa93b566f395a94bd3e463e17608c1a"


def test_golden_compress_power():
    words = (compress_power(*case).tokens() for case in compress_power_spread())
    assert digest(words) == GOLDEN_COMPRESS_POWER
    # the single-index templates for F_0 .. F_81, in index order
    words = (Word(3, tuple(_fused_template(3, 2, ((1, (k,), 1),)))).tokens() for k in range(82))
    assert digest(words) == GOLDEN_FIB_POWER


# ---------------------------------------------------------------- gcd
# accelerated_reduce on seeded tuples: N = 3..8, every active length k,
# entries at three sizes with some forced zeros.


def accelerated_corpus():
    rng = random.Random("golden:accelerated")
    cases = []
    for n in range(3, 9):
        for k in range(2, n + 1):
            for bound in (20, 10**6, 10**30):
                entries = [rng.randint(-bound, bound) for _ in range(n)]
                for pos in rng.sample(range(n), rng.randrange(n - 1)):
                    entries[pos] = 0
                if any(entries[n - k :]):
                    cases.append((tuple(entries), k))
    return cases


# 14 676 letters over the corpus; with 3 <= k < N a fold draws aux from the
# inactive rows once the active ones are busy, so no template is split
GOLDEN_ACCELERATED = "6cf41b3b31c2db5ad2569702f26990bfcfbaf426d365a7db9d7b42cc79d05a37"


def test_golden_accelerated_reduce():
    lines = []
    for entries, k in accelerated_corpus():
        res = accelerated_reduce(entries, k)
        moves = [(q.target, q.source, q.multiple) for q in res.quotient_steps]
        lines.append(f"{entries} {k} {res.final} {moves} {res.word.tokens()}")
    assert digest(lines) == GOLDEN_ACCELERATED


# ---------------------------------------------------------------- oracles
# Exact BFS histograms and distance maps, and the A/B rewriting of seeded
# words.  The even-dimension A/B cases exercise the sign row of the shift B.

GOLDEN_HISTOGRAMS = {
    (3, 3, ELEMENTARY): [1, 12, 96, 486, 1683, 2692, 640, 6],
    (3, 3, AB): [1, 4, 8, 16, 32, 64, 120, 200, 334, 530, 820, 1104, 1205, 824, 282, 62, 10],
    (4, 2, ELEMENTARY): [1, 12, 96, 542, 2058, 5316, 7530, 4058, 541, 6],
    (4, 2, AB): [
        1, 3, 5, 8, 13, 21, 31, 46, 68, 98, 142, 202, 288, 418, 583,
        775, 1037, 1412, 1841, 2383, 3015, 2794, 2435, 1635, 596, 224, 63, 22, 1,
    ],
    (3, 5, AB): [
        1, 4, 10, 24, 56, 136, 320, 740, 1416, 2962, 6298, 13008, 25259,
        44111, 73378, 97407, 79069, 25296, 2390, 112, 3,
    ],
    (2, 3, AB): [1, 4, 9, 10],
    (2, 5, AB): [1, 4, 11, 18, 22, 20, 20, 16, 6, 2],
}


@pytest.mark.parametrize("n,p,alphabet", list(GOLDEN_HISTOGRAMS))
def test_golden_bfs_histograms(n, p, alphabet):
    hist = GOLDEN_HISTOGRAMS[(n, p, alphabet)]
    rep = bfs_diameter(n, p, alphabet)
    assert rep.histogram == dict(enumerate(hist))
    assert (rep.order, rep.diameter) == (sum(hist), len(hist) - 1)


GOLDEN_DISTANCE_MAPS = {
    (2, 5, ELEMENTARY): "ae42483a6c8b81f0eec5c5ba20ebf91ff61913991de3d16f4b5ae0813fda0bbe",
    (3, 3, ELEMENTARY): "d27288940158016fb892c27b843553757a7cf4d171258a98ed360bb79e597c90",
    (3, 2, AB): "c9273e1b0c34429368463cd5ce999429bf91d19f382cdc0151fe8def819020b5",
}


@pytest.mark.parametrize("n,p,alphabet", list(GOLDEN_DISTANCE_MAPS))
def test_golden_bfs_distance_maps(n, p, alphabet):
    dist = bfs_distance_map(n, p, alphabet)
    lines = (f"{k} {v}" for k, v in sorted(dist.items()))
    assert digest(lines) == GOLDEN_DISTANCE_MAPS[(n, p, alphabet)]


# the same maps in the order bfs_distance_map returns them, which is the
# discovery order of the search: levels in order, each level in the order
# its states were first reached, neighbours in generator_letters order
GOLDEN_DISCOVERY_ORDERS = {
    (2, 5, ELEMENTARY): "7a810c43297c4c7d2dd7df649278e27566aa0f4168c1c17c5a7cd1e4a6937d5f",
    (2, 5, AB): "a26e55565a288c4d9c13c7f1e70875d4fddbb417f7c69bf32493f1025762cbd6",
    (3, 3, ELEMENTARY): "b3be3c3010d6b939f0c5eda2b6d16f199838f3378bb2a5a1f336eb628b5b9264",
    (3, 3, AB): "d874d7af210dd338cd461c9367632e499e71f58cbad9b95ba593e5a23044a05a",
    (4, 2, AB): "300beafa90654893fb3ea5b0b76b8c40b4475d32719e67d8b2d6f1db0a7c9a67",
}


@pytest.mark.parametrize("n,p,alphabet", list(GOLDEN_DISCOVERY_ORDERS))
def test_golden_bfs_discovery_orders(n, p, alphabet):
    dist = bfs_distance_map(n, p, alphabet)
    lines = (f"{k} {v}" for k, v in dist.items())
    assert digest(lines) == GOLDEN_DISCOVERY_ORDERS[(n, p, alphabet)]


GOLDEN_AB = {
    3: "2b87db89b03bc56053d4fe7bd278bb0adcaa3e8657b16864a06df8785c264ad3",
    4: "3c82c3b06990736d73e0d16e1fbfcc05e21b1f8d467e4e548b2f9d5df5a3890d",
    6: "25f4c2908a164117277b65a99df0294aac0e115ed0d686568f064b99770bc5d6",
    12: "d2d21fcc1316397ef47f5e94c8b131e698c1fc5d505b4b23f3903f93fb7769d8",
}


def ab_corpus(n: int):
    """Seeded elementary words of lengths 1, 7, 60 and 400."""
    rng = random.Random(f"golden:ab:{n}")
    out = []
    for length in (1, 7, 60, 400):
        letters = []
        for _ in range(length):
            i, j = rng.sample(range(1, n + 1), 2)
            letters.append(eletter(i, j, rng.choice((1, -1))))
        out.append(Word(n, tuple(letters)))
    return out


@pytest.mark.parametrize("n", sorted(GOLDEN_AB))
def test_golden_rewrite_word_ab(n):
    words = []
    for w in ab_corpus(n):
        words.append(rewrite_word_ab(w).tokens())
        # a word times its inverse rewrites to the empty word
        assert len(rewrite_word_ab(w * w.inverse())) == 0
    assert digest(words) == GOLDEN_AB[n]


# ---------------------------------------------------------------- boundary
# Engine and rewrite outputs are built without Word's letter check.  The
# full check on their letters must accept every one and rebuild an equal word.


def test_library_built_words_pass_the_full_check():
    words = [normal_form_result(m).word for n in sorted(GOLDEN_Z) for m in unimodular_corpus(n)]
    words += [word_for_modp(m) for n, p in sorted(GOLDEN_FP) for m in fp_corpus(n, p)]
    words += [rewrite_word_ab(w) for n in sorted(GOLDEN_AB) for w in ab_corpus(n)]
    for w in words:
        assert type(w.letters) is tuple
        assert Word(w.n, w.letters) == w
