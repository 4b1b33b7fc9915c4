import hashlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import cayleynav
from cayleynav.cli import build_parser, main
from cayleynav.core import (
    AB,
    ELEMENTARY,
    MatFp,
    MatZ,
    Word,
    abletter,
    eletter,
    eval_word_fp,
    eval_word_z,
    least_abs_residue,
)
from cayleynav.errors import (
    BudgetExceededError,
    CayleyNavError,
    DomainError,
    InternalStateError,
    InvalidGeneratorError,
    NotInGroupError,
    ParseError,
    UnsupportedDimensionError,
)
from cayleynav.euclid import step_bound, subtractive_gcd
from cayleynav.fibonacci import zeckendorf_length_bound
from cayleynav.formats import parse_matrix_text, parse_word_text, word_to_json

PERM = MatZ.from_rows([[0, 0, 1], [1, 0, 0], [0, 1, 0]])


def matrix_text(m):
    """A matrix in the text input format: "N" or "N p", then one line per row."""
    header = f"{m.n} {m.p}" if isinstance(m, MatFp) else f"{m.n}"
    return header + "\n" + "".join(" ".join(map(str, row)) + "\n" for row in m.rows)


def word_of(obj):
    """The Word that a JSON word object of the CLI stands for."""
    letters = (
        abletter(d["sym"], d["e"]) if "sym" in d else eletter(d["i"], d["j"], d["e"])
        for d in obj["letters"]
    )
    return Word(obj["n"], tuple(letters))


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ---------------------------------------------------------------- formats


def test_word_text_round_trip():
    w = Word(3, (eletter(1, 2), eletter(2, 3, -1)))
    assert w.tokens() == "e(1,2) e(2,3)^-1"
    assert parse_word_text("e(1,2) e(2,3)^-1", 3) == w
    ab = Word(4, (abletter("A"), abletter("B", -1)))
    assert parse_word_text(ab.tokens(), 4) == ab
    assert parse_word_text("", 3) == Word(3)


def test_word_text_parse_errors():
    with pytest.raises(ParseError):
        parse_word_text("e(1;2)", 3)
    with pytest.raises(ParseError):
        parse_word_text("e(1,1)", 3)
    with pytest.raises(ParseError):
        parse_word_text("e(1,4)", 3)
    with pytest.raises(ParseError):
        parse_word_text("A e(1,2)", 3)


def test_word_json_round_trip():
    cases = {
        Word(3, (eletter(1, 3, -1), eletter(2, 1))): {
            "n": 3,
            "alphabet": ELEMENTARY,
            "letters": [{"i": 1, "j": 3, "e": -1}, {"i": 2, "j": 1, "e": 1}],
        },
        Word(5, (abletter("B"), abletter("A", -1))): {
            "n": 5,
            "alphabet": AB,
            "letters": [{"sym": "B", "e": 1}, {"sym": "A", "e": -1}],
        },
        Word(3): {"n": 3, "alphabet": ELEMENTARY, "letters": []},
    }
    for w, obj in cases.items():
        assert word_to_json(w) == obj
        assert word_of(json.loads(json.dumps(word_to_json(w)))) == w


def test_matrix_text_round_trip():
    assert parse_matrix_text(matrix_text(PERM)) == PERM
    m = MatFp.from_rows([[1, 2], [3, 4]], 7)
    assert parse_matrix_text(matrix_text(m)) == m
    assert parse_matrix_text("2\n1 0\n0 1\n") == MatZ.identity(2)


def test_matrix_text_parse_errors():
    for text in (
        "",
        "2 5 9\n1 0\n0 1",
        "2\n1 0",
        "2\n1 0\n0 x",
        "x\n1",
        "2 seven\n1 0\n0 1",
        "2\n1 0 0\n0 1 0",
    ):
        with pytest.raises(ParseError):
            parse_matrix_text(text)
    # well-formed text with a modulus that is not prime is a domain error
    for header in ("2 6", "2 1", "2 0", "2 -7"):
        with pytest.raises(DomainError):
            parse_matrix_text(header + "\n1 0\n0 1")


# ---------------------------------------------------------------- commands


def test_cli_gcd(capsys):
    rc, out, _ = run(capsys, "gcd", "--", "-32", "8", "-12")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "subtractive: steps=6 final=(0, 0, -4)"
    assert lines[1].startswith("accelerated: length=8 bound=357.3")


def test_cli_gcd_trace(capsys):
    rc, out, _ = run(capsys, "gcd", "--trace", "--", "-32", "8", "-12")
    assert rc == 0
    assert "subtractive trace:" in out
    assert "  (-20, 8, -12)" in out
    assert "quotient steps:" in out
    rc, out, _ = run(capsys, "gcd", "--trace", "--json", "--", "-32", "8", "-12")
    assert rc == 0
    subtractive = json.loads(out)["subtractive"]
    assert subtractive["trace"][:2] == [[-32, 8, -12], [-20, 8, -12]]
    assert len(subtractive["trace"]) == subtractive["steps"] + 1
    assert subtractive["trace"][-1] == [0, 0, -4]
    assert json.loads(out)["accelerated"]["quotient_steps"][0] == [1, 2, 4]


def test_cli_gcd_json(capsys):
    rc, out, _ = run(capsys, "gcd", "--json", "--active", "2", "12", "8", "30")
    assert rc == 0
    payload = json.loads(out)
    assert payload["entries"] == [12, 8, 30]
    assert payload["accelerated"]["euclid_k"] == 40
    final = payload["accelerated"]["final"]
    assert final[0] == 12
    assert sorted(map(abs, final[1:])) == [0, 2]


def test_cli_gcd_pads_pairs(capsys):
    rc, out, _ = run(capsys, "gcd", "1", "50")
    assert rc == 0
    assert out.splitlines()[0] == "subtractive: steps=50 final=(0, 1)"


def test_cli_gcd_pads_pairs_in_front(capsys):
    # the pad goes before the pair, so --active 2 reduces the user's entries
    rc, out, _ = run(capsys, "gcd", "--active", "2", "--", "3", "4")
    assert rc == 0
    assert out.splitlines()[1] == "accelerated: length=4 bound=95.5 final=(0, 0, 1)"


def test_cli_gcd_active_length_counts_the_entries_given(capsys):
    # the pad is not an entry: k defaults to the two entries given, and the
    # pair's bound and word are those of --active 2
    rc, out, _ = run(capsys, "gcd", "3", "4")
    assert rc == 0
    assert out == run(capsys, "gcd", "--active", "2", "3", "4")[1]
    assert out.splitlines()[1] == "accelerated: length=4 bound=95.5 final=(0, 0, 1)"
    for k in ("3", "1"):
        rc, out, err = run(capsys, "gcd", "--active", k, "3", "4")
        assert (rc, out) == (3, "")
        assert err == f"error: active length must lie in 2..2, got {k}\n"
    rc, _, err = run(capsys, "gcd", "--active", "4", "12", "8", "30")
    assert (rc, err) == (3, "error: active length must lie in 2..3, got 4\n")


def test_cli_gcd_bound_reads_only_the_active_entries(capsys):
    # the inactive 1000000 is left alone, so it does not raise the budget
    rc, out, _ = run(capsys, "gcd", "--active", "2", "--", "1000000", "3", "4")
    assert rc == 0
    assert out.splitlines()[1] == "accelerated: length=4 bound=95.5 final=(1000000, 0, 1)"
    rc, out, _ = run(capsys, "gcd", "--json", "--active", "2", "--", "1000000", "3", "4")
    assert json.loads(out)["accelerated"]["bound"] == step_bound(2, 4)


def test_cli_gcd_both_engines_reduce_the_active_entries(capsys):
    # the subtractive run reduces the same trailing pair as the accelerated
    # one, and its final tuple and trace keep the inactive head as given
    rc, out, _ = run(capsys, "gcd", "--active", "2", "--", "1000000", "3", "4")
    assert rc == 0
    assert out.splitlines() == [
        "subtractive: steps=4 final=(1000000, 0, 1)",
        "accelerated: length=4 bound=95.5 final=(1000000, 0, 1)",
    ]
    rc, out, _ = run(capsys, "gcd", "--json", "--active", "2", "--", "1000000", "3", "4")
    assert json.loads(out)["subtractive"] == {"final": [1000000, 0, 1], "steps": 4}
    # the inactive 10**9 does not count against the step budget
    rc, out, err = run(capsys, "gcd", "--trace", "--active", "2", "--", "1000000000", "3", "4")
    assert (rc, err) == (0, "")
    lines = out.splitlines()
    start = lines.index("subtractive trace:") + 1
    assert lines[start] == "  (1000000000, 3, 4)"
    assert lines[start + 4] == "  (1000000000, 0, 1)"
    rc, out, _ = run(capsys, "gcd", "--trace", "--json", "--active", "2", "--", "1000000000", "3", "4")
    trace = json.loads(out)["subtractive"]["trace"]
    assert rc == 0 and len(trace) == 5
    assert trace[0] == [1000000000, 3, 4] and trace[-1] == [1000000000, 0, 1]


def test_cli_zeckendorf(capsys):
    rc, out, _ = run(capsys, "zeckendorf", "100")
    assert rc == 0
    assert out.strip() == "100 = F_4 + F_6 + F_11  (3 + 8 + 89)"
    rc, out, _ = run(capsys, "zeckendorf", "100", "--json")
    payload = json.loads(out)
    assert payload == {"m": 100, "indices": [4, 6, 11], "summands": [3, 8, 89]}


def test_cli_compress(capsys):
    rc, out, _ = run(capsys, "compress", "3", "1", "3", "100")
    assert rc == 0
    w = parse_word_text(out, 3)
    assert len(w) == 50
    m = eval_word_z(w)
    assert m.rows == ((1, 0, 100), (0, 1, 0), (0, 0, 1))
    # a negative exponent spells the inverse word
    rc, neg, _ = run(capsys, "compress", "3", "1", "3", "-100")
    assert rc == 0
    assert parse_word_text(neg, 3) == w.inverse()


def test_cli_compress_json(capsys):
    rc, out, _ = run(capsys, "compress", "3", "1", "3", "100", "--json")
    payload = json.loads(out)
    assert payload["length"] == 50
    assert payload["bound"] > payload["length"]
    w = word_of(payload["word"])
    assert eval_word_z(w).rows[0][2] == 100


def test_cli_compress_exponent_beyond_float_range(capsys):
    m = 10**400
    rc, out, _ = run(capsys, "compress", "3", "1", "3", str(m), "--json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["length"] <= payload["bound"] < 12_000
    w = word_of(payload["word"])
    assert eval_word_z(w) == MatZ.from_rows([[1, 0, m], [0, 1, 0], [0, 0, 1]])


def test_cli_compress_modp(capsys):
    rc, out, _ = run(capsys, "compress", "3", "1", "2", "100", "--modp", "101")
    assert rc == 0
    assert out.strip() == "e(1,2)^-1"


def test_cli_compress_modp_bound_is_that_of_the_residue(capsys):
    # the bound belongs to the exponent spelled: the residue in (-p/2, p/2]
    for m, p, residue in ((707, 101, 0), (100, 101, -1), (10007 * 10**20 - 3000, 10007, -3000)):
        assert least_abs_residue(m, p) == residue
        rc, out, _ = run(capsys, "compress", "3", "1", "2", str(m), "--modp", str(p), "--json")
        assert rc == 0
        payload = json.loads(out)
        assert payload["bound"] == (zeckendorf_length_bound(abs(residue)) if residue else 0.0)
        assert payload["length"] <= payload["bound"]
        target = MatFp.from_rows([[1, m % p, 0], [0, 1, 0], [0, 0, 1]], p)
        assert eval_word_fp(word_of(payload["word"]), p) == target


def test_cli_normal_form_file(tmp_path, capsys):
    path = tmp_path / "m.txt"
    path.write_text(matrix_text(PERM))
    rc, out, _ = run(capsys, "normal-form", str(path))
    assert rc == 0
    w = parse_word_text(out, 3)
    assert eval_word_z(w) == PERM


def test_cli_normal_form_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(matrix_text(PERM)))
    rc, out, _ = run(capsys, "normal-form")
    assert rc == 0
    assert eval_word_z(parse_word_text(out, 3)) == PERM


def test_cli_normal_form_stats(tmp_path, capsys):
    path = tmp_path / "batch.txt"
    path.write_text(matrix_text(PERM) + "\n" + matrix_text(MatZ.identity(3)))
    rc, out, _ = run(capsys, "normal-form", "--stats", str(path))
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("n=3 norm=1 ")
    assert "phases=" in lines[0]
    assert lines[1].endswith("ratio=-")  # identity norm 1 has no log ratio


def test_cli_normal_form_json(tmp_path, capsys):
    path = tmp_path / "m.txt"
    path.write_text(matrix_text(PERM))
    rc, out, _ = run(capsys, "normal-form", "--json", str(path))
    payload = json.loads(out)
    assert payload["length"] == sum(payload["phase_lengths"])
    assert eval_word_z(word_of(payload["word"])) == PERM


def test_cli_normal_form_json_reports_the_phases(tmp_path, capsys):
    # LLL reorders these rows for free: one size reduction, then two row
    # operations land column 2's carrier as 1 and one letter clears the
    # upper triangle; no entry ever exceeds 1
    m = MatZ.from_rows([[1, 1, 0], [0, 0, 1], [0, -1, 0]])
    path = tmp_path / "m.txt"
    path.write_text(matrix_text(m))
    rc, out, _ = run(capsys, "normal-form", "--json", str(path))
    payload = json.loads(out)
    assert rc == 0
    assert (payload["phase_lengths"], payload["column_norms"]) == ([3, 0, 1], [1, 1, 1])
    assert payload["length"] == len(payload["word"]["letters"]) == 4
    assert eval_word_z(word_of(payload["word"])) == m


def test_cli_normal_form_reports_true_peak(tmp_path, capsys):
    m = MatZ.from_rows([[1, 9, 0], [0, 1, 0], [0, 0, 1]])
    path = tmp_path / "m.txt"
    path.write_text(matrix_text(m))
    rc, out, _ = run(capsys, "normal-form", "--json", str(path))
    payload = json.loads(out)
    assert rc == 0
    assert payload["peak_norm"] == 9
    assert payload["peak_bits"] == 4
    rc, out, _ = run(capsys, "normal-form", "--stats", "--json", str(path))
    row = json.loads(out)["matrices"][0]
    assert (row["peak_norm"], row["peak_bits"]) == (9, 4)
    rc, out, _ = run(capsys, "normal-form", "--stats", str(path))
    assert out.startswith("n=3 norm=9 peak=9 length=9 phases=0/0/9 ratio=")


def test_cli_normal_form_stats_whitespace_separator(tmp_path, capsys):
    path = tmp_path / "batch.txt"
    path.write_text(
        matrix_text(PERM) + "  \t\n" + matrix_text(MatZ.identity(3)) + " \n\n"
    )
    rc, out, _ = run(capsys, "normal-form", "--stats", str(path))
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("n=3 norm=1 peak=1 length=0 ")


def test_cli_normal_form_stats_refuses_blank_input(monkeypatch, capsys):
    for text in ("", "\n", " \n\t\n\n"):
        for extra in ((), ("--json",)):
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
            rc, out, err = run(capsys, "normal-form", "--stats", *extra)
            assert (rc, out, err) == (2, "", "error: empty matrix input\n")


def test_cli_normal_form_rejects_modp_header(tmp_path, capsys):
    path = tmp_path / "m.txt"
    path.write_text("3 7\n1 0 0\n0 1 0\n0 0 1\n")
    rc, _, err = run(capsys, "normal-form", str(path))
    assert rc == 2
    assert "error:" in err


def test_cli_reduce_modp(tmp_path, capsys):
    path = tmp_path / "m.txt"
    path.write_text("3 7\n1 1 0\n0 1 0\n0 0 1\n")
    rc, out, _ = run(capsys, "reduce-modp", str(path))
    assert rc == 0
    assert out.strip() == "e(1,2)"


def test_cli_reduce_modp_needs_modp_header(tmp_path, capsys):
    path = tmp_path / "m.txt"
    path.write_text(matrix_text(PERM))
    rc, _, err = run(capsys, "reduce-modp", str(path))
    assert rc == 2


def test_cli_reduce_modp_clears_the_upper_triangle_with_half_walks(tmp_path, capsys):
    # over F_p the upper triangle takes half walks: 278 letters, not the 374 of full templates
    m = MatFp.from_rows(
        [[1, 5000, 3000, 7000], [0, 1, 4000, 2000], [0, 0, 1, 6000], [0, 0, 0, 1]], 10007
    )
    path = tmp_path / "m.txt"
    path.write_text(matrix_text(m))
    rc, out, _ = run(capsys, "reduce-modp", str(path))
    assert rc == 0
    w = parse_word_text(out, 4)
    assert len(w) == 278
    assert eval_word_fp(w, 10007) == m


def test_cli_reduce_modp_random(tmp_path, capsys):
    m = MatFp.from_rows([[1, 5, 4], [1, 1, 6], [4, 0, 3]], 7)
    from cayleynav.core import determinant_fp

    assert determinant_fp(m) == 1
    path = tmp_path / "m.txt"
    path.write_text(matrix_text(m))
    rc, out, _ = run(capsys, "reduce-modp", str(path))
    assert rc == 0
    assert eval_word_fp(parse_word_text(out, 3), 7) == m


def test_cli_fp_report_csv(capsys):
    rc, out, _ = run(capsys, "fp-report", "3", "101", "--samples", "20")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "n,p,order,mode,count,max_length,mean_length,normalized_max,bound,c_const,seed"
    assert lines[1].startswith("3,101,")
    assert ",sampled,20," in lines[1]
    assert lines[1].endswith(",0")


def test_cli_fp_report_refuses_dimension_two_before_the_search(capsys):
    # SL_2(F_251) is over the state budget, but mod-p reports need N >= 3,
    # so the refusal is the domain error's 3, not the budget's 4
    rc, out, err = run(capsys, "fp-report", "2", "251", "--exhaustive")
    assert (rc, out, err) == (3, "", "error: mod-p reduction needs dimension >= 3, got 2\n")


def test_cli_fp_report_json(capsys):
    rc, out, _ = run(capsys, "fp-report", "3", "2", "--exhaustive", "--json")
    norm = 3 * 3 * math.log(2)
    # every field of the report, and nothing else; SL_3(F_2) has 168 elements
    assert json.loads(out) == {
        "n": 3,
        "p": 2,
        "order": 168,
        "mode": "exhaustive",
        "count": 168,
        "max_length": 8,
        "mean_length": 684 / 168,
        "normalized_max": 8 / norm,
        "bound": 12.0 * norm,
        "c_const": 12.0,
        "seed": None,
    }


def test_cli_rewrite_ab(capsys):
    rc, out, _ = run(capsys, "rewrite-ab", "3", "e(1,3)")
    assert rc == 0
    w = parse_word_text(out, 3)
    assert eval_word_z(w).rows == ((1, 0, 1), (0, 1, 0), (0, 0, 1))
    assert run(capsys, "rewrite-ab", "3", "e(1,2)") == (0, "A\n", "")


def test_cli_rewrite_ab_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("e(2,1)^-1 e(1,2)"))
    rc, out, _ = run(capsys, "rewrite-ab", "3")
    assert rc == 0
    w = parse_word_text(out, 3)
    target = eval_word_z(parse_word_text("e(2,1)^-1 e(1,2)", 3))
    assert eval_word_z(w) == target


def test_cli_ab_table(capsys):
    rc, out, _ = run(capsys, "ab-table", "3")
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 6
    assert lines[0].startswith("e(1,2)  len=  1  A")


def test_cli_ab_table_rejects_small_dimensions(capsys):
    for n in ("1", "0", "-2"):
        rc, out, err = run(capsys, "ab-table", "--", n)
        assert rc == 3 and out == ""
        assert err == f"error: dimension must be at least 2, got {n}\n"


def test_word_dimension_below_two_is_a_domain_error():
    # the dimension is checked before any token, so a bad token does not mask it
    for n in (1, 0, -2):
        with pytest.raises(DomainError, match=f"word dimension must be at least 2, got {n}"):
            parse_word_text("e(1;2)", n)


def test_cli_word_dimension_below_two_exits_3(monkeypatch, capsys):
    for n in ("1", "0", "-2"):
        err = f"error: word dimension must be at least 2, got {n}\n"
        assert run(capsys, "rewrite-ab", "--", n, "A") == (3, "", err)
        # verify reads the dimension from the matrix header: a 1x1 matrix is
        # refused by the word parser, a header below 1 by the matrix parser
        monkeypatch.setattr("sys.stdin", io.StringIO(f"{n}\n" + "1\n" * (n == "1")))
        rc, out, err = run(capsys, "verify", "--matrix", "-", "A")
        assert (rc, out) == (3, "")
        assert err.startswith("error: word dimension" if n == "1" else "error: matrix dimension")


def test_cli_bfs_diameter(capsys):
    rc, out, _ = run(capsys, "bfs-diameter", "3", "2")
    assert rc == 0
    assert "order=168 diameter=6" in out
    assert "histogram: 0:1 1:6 2:24 3:51 4:60 5:24 6:2" in out


@pytest.mark.parametrize(
    "argv, first",
    [
        (["3", "5", "--alphabet", "ab"], "SL_3(F_5) over ab: order=372000 diameter=20"),
        (["4", "2"], "SL_4(F_2) over elementary: order=20160 diameter=9"),
        # the A/B kernel on the entrywise N = 2 row moves
        (["2", "5", "--alphabet", "ab"], "SL_2(F_5) over ab: order=120 diameter=9"),
    ],
    ids=["sl3-f5-ab", "sl4-f2", "sl2-f5-ab"],
)
def test_cli_bfs_diameter_first_line(capsys, argv, first):
    rc, out, _ = run(capsys, "bfs-diameter", *argv)
    assert rc == 0
    assert out.splitlines()[0] == first


def test_cli_bfs_diameter_json(capsys):
    rc, out, _ = run(capsys, "bfs-diameter", "2", "2", "--json")
    # JSON object keys are strings, so the histogram's distances print as "0", "1", ...
    assert json.loads(out) == {
        "n": 2,
        "p": 2,
        "alphabet": "elementary",
        "order": 6,
        "diameter": 3,
        "histogram": {"0": 1, "1": 2, "2": 2, "3": 1},
    }


def test_cli_sl2_lowerbound(capsys):
    rc, out, _ = run(capsys, "sl2-lowerbound", "4")
    assert rc == 0
    assert "ball size at radius 4:" in out
    assert "d(e(2,1)^3) = 3" in out
    assert "d(e(2,1)^4) = 4" in out
    assert out.splitlines()[-1].startswith("distance grows linearly")
    # the SL_2(Z) ball from the row-move search, and d(e(2,1)^k) = k up to the radius
    rc, out, _ = run(capsys, "sl2-lowerbound", "6")
    lines = out.splitlines()
    assert rc == 0
    assert lines[0] == "ball size at radius 6: 556"
    assert "d(e(2,1)^6) = 6" in lines


# every subcommand that takes --json, with a small valid input
JSON_CASES = [
    (["compress", "3", "1", "3", "100"], None),
    (["zeckendorf", "100"], None),
    (["gcd", "12", "8", "30"], None),
    (["normal-form", "-"], matrix_text(PERM)),
    (["reduce-modp", "-"], "3 7\n1 1 0\n0 1 0\n0 0 1\n"),
    (["fp-report", "3", "5", "--samples", "5"], None),
    (["rewrite-ab", "3", "e(1,3)", "e(2,1)^-1"], None),
    (["ab-table", "3"], None),
    (["bfs-diameter", "2", "3"], None),
    (["sl2-lowerbound", "4"], None),
]


@pytest.mark.parametrize("argv, stdin", JSON_CASES, ids=[argv[0] for argv, _ in JSON_CASES])
def test_cli_json_prints_one_object(monkeypatch, capsys, argv, stdin):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin or ""))
    rc, out, err = run(capsys, *argv, "--json")
    assert (rc, err) == (0, "")
    assert isinstance(json.loads(out), dict)
    assert out.count("\n") == 1  # one document on one line


def test_cli_verify_match(tmp_path, capsys):
    path = tmp_path / "m.txt"
    path.write_text(matrix_text(PERM))
    word = tmp_path / "w.txt"
    from cayleynav.normalform import normal_form

    word.write_text(normal_form(PERM).tokens())
    rc, out, _ = run(capsys, "verify", "--matrix", str(path), "--word", str(word))
    assert rc == 0
    assert out.startswith("MATCH length=")


def test_cli_verify_tokens_and_mismatch(tmp_path, capsys):
    path = tmp_path / "m.txt"
    path.write_text("3\n1 1 0\n0 1 0\n0 0 1\n")
    rc, out, _ = run(capsys, "verify", "--matrix", str(path), "e(1,2)")
    assert rc == 0
    rc, out, _ = run(capsys, "verify", "--matrix", str(path), "e(1,3)")
    assert rc == 1
    assert out.strip() == "MISMATCH"


def test_cli_verify_mismatch_names_the_first_differing_entry(tmp_path, capsys):
    path = tmp_path / "m.txt"
    path.write_text("3\n1 1 0\n0 1 0\n0 0 1\n")
    rc, out, err = run(capsys, "verify", "--matrix", str(path), "e(1,3)")
    assert rc == 1 and out == "MISMATCH\n"
    assert err == "first difference at row 1, column 2: expected 1, got 0\n"
    path.write_text("3 5\n1 0 0\n0 1 0\n0 4 1\n")
    rc, out, err = run(capsys, "verify", "--matrix", str(path), "e(3,2)", "e(2,1)")
    assert rc == 1 and out == "MISMATCH\n"
    assert err == "first difference at row 2, column 1: expected 0, got 1\n"


def test_cli_verify_modp(tmp_path, capsys):
    path = tmp_path / "m.txt"
    path.write_text("3 5\n1 2 0\n0 1 0\n0 0 1\n")
    rc, out, _ = run(capsys, "verify", "--matrix", str(path), "e(1,2)", "e(1,2)", "e(1,2)", "e(1,2)", "e(1,2)", "e(1,2)", "e(1,2)")
    assert rc == 0  # seven applications are two mod five


def test_cli_verify_refuses_matrix_and_word_both_from_stdin(monkeypatch, capsys):
    message = "error: the matrix and the word cannot both come from stdin\n"
    for word_args in ((), ("--word", "-")):
        monkeypatch.setattr("sys.stdin", io.StringIO("3\n1 1 0\n0 1 0\n0 0 1\n"))
        rc, out, err = run(capsys, "verify", "--matrix", "-", *word_args)
        assert (rc, out, err) == (2, "", message)
    # the matrix from stdin and the word as tokens
    monkeypatch.setattr("sys.stdin", io.StringIO("3\n1 1 0\n0 1 0\n0 0 1\n"))
    assert run(capsys, "verify", "--matrix", "-", "e(1,2)") == (0, "MATCH length=1\n", "")


def test_cli_verify_refuses_word_file_and_tokens_together(tmp_path, capsys):
    path = tmp_path / "m.txt"
    path.write_text("3\n1 1 0\n0 1 0\n0 0 1\n")
    word = tmp_path / "w.txt"
    word.write_text("e(1,2)\n")
    rc, out, err = run(capsys, "verify", "--matrix", str(path), "--word", str(word), "e(2,3)", "e(1,3)")
    assert (rc, out, err) == (2, "", "error: the word comes from --word or from tokens, not both\n")


def test_cli_exit_codes(tmp_path, capsys):
    rc, _, err = run(capsys, "rewrite-ab", "3", "e(1,2")
    assert rc == 2 and "error:" in err
    path = tmp_path / "bad.txt"
    path.write_text("3\n2 0 0\n0 1 0\n0 0 1\n")
    rc, _, err = run(capsys, "normal-form", str(path))
    assert rc == 3 and "determinant" in err
    rc, _, err = run(capsys, "bfs-diameter", "3", "101")
    assert rc == 4 and "error:" in err
    # under the state budget, but the visited table of 101**4 bytes is not
    rc, out, err = run(capsys, "bfs-diameter", "2", "101")
    assert rc == 4 and out == "" and "visited table" in err


def test_cli_gcd_step_budget_exits_4(monkeypatch, capsys):
    monkeypatch.setattr("cayleynav.euclid.SUBTRACTIVE_STEP_BUDGET", 100)
    rc, out, err = run(capsys, "gcd", "--trace", "1", "1000")
    assert rc == 4 and out == ""
    assert err == "error: subtractive gcd needs more than 100 steps (euclid.SUBTRACTIVE_STEP_BUDGET)\n"
    # without --trace nothing is expanded, so the budget does not apply
    rc, out, _ = run(capsys, "gcd", "1", "1000")
    assert rc == 0 and out.startswith("subtractive: steps=1000 final=(0, 1)\n")


class DigestSink:
    """A stdout that keeps only the SHA-256 of what is written to it."""

    def __init__(self):
        self.sha = hashlib.sha256()

    def write(self, text):
        self.sha.update(text.encode())

    def writelines(self, lines):
        for line in lines:
            self.write(line)

    def flush(self):
        pass


def test_cli_gcd_text_trace_is_written_as_it_is_expanded(monkeypatch, capsys):
    argv = ["gcd", "--trace", "1", "100000"]
    rc, out, _ = run(capsys, *argv)
    lines = out.splitlines()
    start = lines.index("subtractive trace:") + 1
    assert lines[start:-2] == [f"  {t}" for t in subtractive_gcd((1, 100000)).tuples()]
    assert lines[-2:] == ["quotient steps:", "  row 3 += -100000 * row 2"]
    # held whole, the 10**5 tuples and their lines would take about 15 MB
    sink = DigestSink()
    monkeypatch.setattr("sys.stdout", sink)
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.sha.hexdigest() == hashlib.sha256(out.encode()).hexdigest()
    assert peak < 1_000_000, peak


@pytest.mark.parametrize("entries", [(-32, 8, -12), (12, 8, 30), (1, 999), (0, 0, 7), (-5, 3)])
def test_cli_gcd_json_trace_is_the_document_streamed(capsys, entries):
    argv = ["gcd", "--trace", "--json", "--", *map(str, entries)]
    rc, out, _ = run(capsys, *argv)
    # the same document as json.dumps of the payload holding the whole trace
    rc_plain, plain, _ = run(capsys, "gcd", "--json", "--", *map(str, entries))
    doc = json.loads(plain)
    doc["subtractive"]["trace"] = subtractive_gcd(entries).tuples()
    assert rc == rc_plain == 0
    assert out == json.dumps(doc, sort_keys=True) + "\n"


def test_cli_gcd_json_trace_is_written_as_it_is_expanded(monkeypatch, capsys):
    # over the step budget nothing is printed, as in text mode
    monkeypatch.setattr("cayleynav.euclid.SUBTRACTIVE_STEP_BUDGET", 100)
    rc, out, err = run(capsys, "gcd", "--trace", "--json", "1", "1000")
    assert rc == 4 and out == "" and err.startswith("error: subtractive gcd needs more than 100 steps")
    monkeypatch.undo()
    argv = ["gcd", "--trace", "--json", "1", "100000"]
    rc, out, _ = run(capsys, *argv)
    assert rc == 0 and len(json.loads(out)["subtractive"]["trace"]) == 100001
    # held whole, the 10**5 tuples and the document take about 14 MB
    sink = DigestSink()
    monkeypatch.setattr("sys.stdout", sink)
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.sha.hexdigest() == hashlib.sha256(out.encode()).hexdigest()
    assert peak < 1_000_000, peak


def test_cli_gcd_counts_beyond_the_step_budget(capsys):
    rc, out, err = run(capsys, "gcd", "1", "1000000000")
    assert (rc, err) == (0, "")
    # (1, m) takes exactly m unit steps
    assert out.splitlines()[0] == "subtractive: steps=1000000000 final=(0, 1)"


def test_cli_unreadable_file_is_a_parse_error(tmp_path, capsys):
    missing = str(tmp_path / "missing.txt")
    rc, out, err = run(capsys, "verify", "--matrix", missing, "e(1,2)")
    assert rc == 2 and out == ""
    assert err.startswith("error: cannot read") and len(err.splitlines()) == 1
    rc, out, err = run(capsys, "normal-form", missing)
    assert rc == 2 and out == ""
    assert err.startswith("error: cannot read") and len(err.splitlines()) == 1
    rc, _, err = run(capsys, "normal-form", str(tmp_path))
    assert rc == 2 and err.startswith("error: cannot read")
    binary = tmp_path / "m.bin"
    binary.write_bytes(b"3\n\xff\xfe\n")
    rc, _, err = run(capsys, "normal-form", str(binary))
    assert rc == 2 and err.startswith("error: cannot read")


def test_cli_reduce_modp_refuses_a_strong_pseudoprime(monkeypatch, capsys):
    # a modulus the matrix header names must be prime, like "2 6" in
    # test_matrix_text_parse_errors, and a bad one exits 3 like any other
    # domain error; 318665857834031151167461 is
    # 399165290221 * 798330580441, a strong pseudoprime to the bases 2..37
    body = "\n1 1 0\n0 1 0\n0 0 1\n"
    monkeypatch.setattr("sys.stdin", io.StringIO("3 318665857834031151167461" + body))
    rc, out, err = run(capsys, "reduce-modp")
    assert rc == 3 and out == ""
    assert "is not prime" in err
    # beyond the exact range of the primality test the modulus is refused
    monkeypatch.setattr("sys.stdin", io.StringIO("3 3317044064679887385961981" + body))
    rc, out, err = run(capsys, "reduce-modp")
    assert rc == 3 and out == ""
    assert "not decided" in err
    rc, out, err = run(capsys, "compress", "3", "1", "2", "5", "--modp", "3317044064679887385961981")
    assert rc == 3 and out == "" and "not decided" in err


def test_cli_composite_modulus_exits_3_everywhere(tmp_path, capsys):
    path = tmp_path / "m.txt"
    path.write_text("3 6\n1 1 0\n0 1 0\n0 0 1\n")
    for argv in (
        ("reduce-modp", str(path)),
        ("verify", "--matrix", str(path), "e(1,2)"),
        ("compress", "3", "1", "2", "5", "--modp", "6"),
        ("fp-report", "3", "6"),
    ):
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (3, ""), argv
        assert "modulus 6 is not prime" in err


def test_cli_internal_error_is_one_line_exit_5(monkeypatch, capsys):
    def broken(args):
        raise RuntimeError("table went missing")

    monkeypatch.setattr("cayleynav.cli.cmd_zeckendorf", broken)
    rc, out, err = run(capsys, "zeckendorf", "100")
    assert rc == 5 and out == ""
    assert err == "error: internal: RuntimeError: table went missing\n"
    # typed errors keep their own codes
    rc, _, _ = run(capsys, "compress", "3", "1", "1", "5")
    assert rc == 3


@pytest.mark.parametrize(
    "error, code",
    [
        (ParseError, 2),
        (BudgetExceededError, 4),
        (DomainError, 3),
        (InvalidGeneratorError, 3),
        (UnsupportedDimensionError, 3),
        (NotInGroupError, 3),
        (CayleyNavError, 3),
        (InternalStateError, 5),
        (ValueError, 5),
    ],
)
def test_cli_exit_code_of_each_error_class(monkeypatch, capsys, error, code):
    def broken(m):
        raise error("boom")

    monkeypatch.setattr("cayleynav.fibonacci.zeckendorf", broken)
    rc, out, err = run(capsys, "zeckendorf", "5")
    assert (rc, out) == (code, "")
    # a broken invariant is an internal error, reported with its type
    shown = f"internal: {error.__name__}: boom" if code == 5 else "boom"
    assert err == f"error: {shown}\n"


def test_cli_closed_stdout_stops_quietly_with_141():
    # the reader goes away after one line of a long trace, as `| head -n 1`
    # does: no error line, no message at interpreter exit, the SIGPIPE code
    src = str(Path(cayleynav.__file__).resolve().parents[1])
    argv = [sys.executable, "-m", "cayleynav.cli", "gcd", "--trace", "1", "200000"]
    for unbuffered in ("1", ""):
        env = dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED=unbuffered)
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert proc.stdout.readline() == b"subtractive: steps=200000 final=(0, 1)\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=60), err) == (141, b"")


def test_cli_requires_subcommand(capsys):
    with pytest.raises(SystemExit):
        main([])
    capsys.readouterr()


# SHA-256 of `cayley-nav [SUBCOMMAND] --help` at 80 columns; the lazy imports
# of the subcommands left every byte of the help as it was
HELP_DIGESTS = [
    ([], "bf29794713a57e721b297dd720986c480a6a91e6c3e1c8ca64d7f994d50c9ff7"),
    (["compress"], "41944f36508617af598b06e2646fd305f9aa7a2c9c10b1cbad9087195ca37ca6"),
    (["zeckendorf"], "4cd45b67a1d1674f84cc3fb905fd10d44466a6979d7d03ecd0466fdae7cfdbc6"),
    (["gcd"], "db597bcf59d226700f2a9a09c3c1c4a8fcd3a65f606d02dde81c7b8917194196"),
    (["normal-form"], "6d70c31afb28f04c51e5c932fcf36aad28191a10b157a3aa5f677b1093284d31"),
    (["reduce-modp"], "49dd6a7c2519812e2fc4bc3e22028a570ebf45aa17da873682f39a8bfa33db64"),
    (["fp-report"], "7e75f5b2165a1700d78dc4327851fa7ed4e47748a9cdf60007d8dd93e24c211f"),
    (["rewrite-ab"], "d0ac165c45078e3536612b26c5b33dbc4228523fb0a478cb0929cdd964bd2458"),
    (["ab-table"], "4d50d15b01f84440e4bed4303412ee972090ba36134971c5f8a9f048c1c8fd2e"),
    (["bfs-diameter"], "1121ea96f882cf7f5f3c10a599c90bef22866217187c5c0c6f0dcf382e9851bd"),
    (["sl2-lowerbound"], "29674207cc1eda9084a8c0efe4d85ce5ffbbd0acb453d5175c98939bf10ed099"),
    (["verify"], "8db0566cac68f1a140b5ba47b5a47c01c2179df97998f740f9737b734fd20c70"),
]


@pytest.mark.parametrize("argv, digest", HELP_DIGESTS)
def test_cli_help_is_unchanged(monkeypatch, capsys, argv, digest):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--help"])
    text = capsys.readouterr().out
    assert exc.value.code == 0
    if not argv:
        assert text == build_parser().format_help()
    assert hashlib.sha256(text.encode()).hexdigest() == digest, text


def test_cli_budget_defaults_are_the_search_budget():
    from cayleynav.bfs import DEFAULT_BUDGET

    parser = build_parser()
    assert parser.parse_args(["bfs-diameter", "3", "2"]).budget == DEFAULT_BUDGET
    assert parser.parse_args(["fp-report", "3", "5"]).budget == DEFAULT_BUDGET


# ---------------------------------------------------------------- README

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_examples():
    """The commands of the README command-line block, in order.

    Each is (comment lines just above it, argv after cayley-nav, the
    "# -> " lines just below it).  A command on a file or a pipe has no
    "# -> " lines below it.
    """
    block = README.read_text().split("## Command line", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    examples, comments, after_command = [], [], False
    for line in block.splitlines():
        if after_command and line.startswith("# -> "):
            examples[-1][2].append(line[len("# -> ") :])
            continue
        after_command = line.startswith("cayley-nav ")
        if after_command:
            examples.append((comments, shlex.split(line)[1:], []))
            comments = []
        elif line.startswith("#"):
            comments.append(line)
        else:
            comments = []
    return examples


def test_cli_readme_examples_print_what_the_readme_says(capsys):
    checked = []
    for comments, argv, expected in readme_examples():
        claim = re.search(r"(\d+) letters instead of (\d+)", " ".join(comments))
        if not expected and not claim:
            continue
        rc, out, _ = run(capsys, *argv)
        assert rc == 0, argv
        lines = iter(out.splitlines())
        for want in expected:
            # membership consumes the iterator, so the lines match in order
            assert want in lines, (argv, want)
        if claim:
            assert argv[0] == "compress" and int(argv[4]) == int(claim[2])
            assert len(parse_word_text(out, int(argv[1]))) == int(claim[1])
        checked.append(argv[0])
    assert checked == ["compress", "compress", "zeckendorf", "gcd", "gcd", "gcd", "bfs-diameter"]


def test_readme_library_example_runs(capsys):
    # the block asserts its own word evaluates to m, and prints its length
    block = README.read_text().split("## Library example", 1)[1]
    source = block.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(source, str(README), "exec"), {})
    assert int(capsys.readouterr().out) > 0
