"""Command line interface.

Exit codes: 0 success (for verify: words match), 1 verify mismatch,
2 malformed input or arguments or an unreadable input file, 3 domain
errors (wrong determinant, unsupported dimension, bad indices),
4 exhausted budgets, 5 internal errors (InternalStateError or any other
exception, on one line), 141 stdout closed by its reader (no message).
Logarithms in reported bounds and ratios are natural.

Each subcommand imports the modules it uses when it runs, and the parser
imports none, so a process compiles only what its subcommand needs.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys

from .errors import DEFAULT_BUDGET, BudgetExceededError, CayleyNavError, DomainError, InternalStateError, ParseError

SL2_RADIUS_LIMIT = 14  # cap on the exhaustive SL_2(Z) ball: radius 14 has 147 436 states


def _read_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) and exc.strerror else exc
        raise ParseError(f"cannot read {path}: {reason}") from exc


def _read_matrix(text: str, kind: type) -> MatZ | MatFp:
    """Parse matrix text, refusing a matrix that is not of kind, MatZ or MatFp."""
    from .core import MatFp
    from .formats import parse_matrix_text

    m = parse_matrix_text(text)
    if not isinstance(m, kind):
        raise ParseError(
            "expected a mod-p matrix: header must be 'n p'" if kind is MatFp
            else "expected an integer matrix: header must be just the dimension"
        )
    return m


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        import json

        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


def cmd_compress(args) -> int:
    from .compression import compress_power
    from .core import is_prime, least_abs_residue
    from .fibonacci import zeckendorf_length_bound
    from .formats import word_to_json

    m = args.m
    if args.modp is not None:
        if not is_prime(args.modp):
            raise DomainError(f"modulus {args.modp} is not prime")
        m = least_abs_residue(m, args.modp)
    w = compress_power(args.n, args.i, args.j, m, args.aux)
    bound = zeckendorf_length_bound(abs(m)) if m else 0.0
    payload = {"length": len(w), "bound": bound, "word": word_to_json(w)}
    _emit(args, payload, w.tokens())
    return 0


def cmd_zeckendorf(args) -> int:
    from .fibonacci import zeckendorf

    z = zeckendorf(args.m)
    payload = {"m": args.m, "indices": list(z.indices), "summands": list(z.summands())}
    text = f"{args.m} = " + " + ".join(f"F_{k}" for k in z.indices)
    text += "  (" + " + ".join(str(v) for v in z.summands()) + ")"
    _emit(args, payload, text)
    return 0


def cmd_gcd(args) -> int:
    from .euclid import DEFAULT_K, accelerated_reduce, step_bound, subtractive_gcd

    entries = tuple(args.entries)
    k = len(entries) if args.active is None else args.active
    if args.active is not None and not 2 <= k <= len(entries):
        raise DomainError(f"active length must lie in 2..{len(entries)}, got {k}")
    inactive, active = entries[:-k], entries[-k:]
    trace = subtractive_gcd(active)
    # a pair gets a zero pad in front, which is the aux row of its reduction
    res = accelerated_reduce(entries if len(entries) >= 3 else (0,) + entries, k)
    bound = step_bound(k, max(map(abs, active)))
    payload = {
        "entries": list(entries),
        "subtractive": {"steps": trace.step_count, "final": list(inactive + trace.final)},
        "accelerated": {
            "length": len(res.word),
            "final": list(res.final),
            "quotient_steps": [[st.target, st.source, st.multiple] for st in res.quotient_steps],
            "bound": bound,
            "euclid_k": DEFAULT_K,
        },
    }
    lines = [
        f"subtractive: steps={trace.step_count} final={inactive + trace.final}",
        f"accelerated: length={len(res.word)} bound={bound:.1f} final={res.final}",
    ]
    if not args.trace:
        _emit(args, payload, "\n".join(lines))
        return 0
    tuples = (inactive + t for t in trace.iter_tuples())  # refuses before any output, then streams
    if args.json:
        import json

        # with sorted keys, subtractive.trace is the last key of the document:
        # the trace goes in front of its two closing braces, one tuple at a time
        head = json.dumps(payload, sort_keys=True)[:-2]
        sys.stdout.write(f'{head}, "trace": [')
        sys.stdout.writelines(f"{', ' if k else ''}[{', '.join(map(str, t))}]" for k, t in enumerate(tuples))
        sys.stdout.write("]}}\n")
        return 0
    print(*lines, "subtractive trace:", sep="\n")
    sys.stdout.writelines(f"  {t}\n" for t in tuples)
    steps = (f"  row {st.target} += {st.multiple} * row {st.source}" for st in res.quotient_steps)
    print("quotient steps:", *steps, sep="\n")
    return 0


def _normal_form(m: MatZ):
    """normal_form_result(m) and the record fields both normal-form modes report."""
    from .normalform import normal_form_result

    res = normal_form_result(m)
    fields = {
        "length": len(res.word),
        "phase_lengths": list(res.phase_lengths),
        "peak_norm": res.peak_norm,
        "peak_bits": res.peak_norm.bit_length(),
    }
    return res, fields


def cmd_normal_form(args) -> int:
    from .core import MatZ
    from .formats import word_to_json

    text = _read_text(args.path)
    if not args.stats:
        res, payload = _normal_form(_read_matrix(text, MatZ))
        payload.update(column_norms=list(res.column_norms), word=word_to_json(res.word))
        _emit(args, payload, res.word.tokens())
        return 0
    blocks = [b for b in re.split(r"\n\s*\n", text) if b.strip()]
    if not blocks:
        raise ParseError("empty matrix input")
    rows = []
    lines = []
    for block in blocks:
        m = _read_matrix(block, MatZ)
        res, row = _normal_form(m)
        norm = res.column_norms[0]
        ratio = len(res.word) / math.log(norm) if norm >= 2 else None
        rows.append(dict(row, n=m.n, norm=norm, ratio=ratio))
        a, b, c = res.phase_lengths
        shown = f"{ratio:.1f}" if ratio is not None else "-"
        lines.append(
            f"n={m.n} norm={norm} peak={res.peak_norm} "
            f"length={len(res.word)} phases={a}/{b}/{c} ratio={shown}"
        )
    _emit(args, {"matrices": rows}, "\n".join(lines))
    return 0


def cmd_reduce_modp(args) -> int:
    from .core import MatFp
    from .formats import word_to_json
    from .modp import word_for_modp

    m = _read_matrix(_read_text(args.path), MatFp)
    w = word_for_modp(m)
    payload = {"length": len(w), "p": m.p, "word": word_to_json(w)}
    _emit(args, payload, w.tokens())
    return 0


def cmd_fp_report(args) -> int:
    from .modp import diameter_upper_bound_report

    report = diameter_upper_bound_report(
        args.n,
        args.p,
        exhaustive=args.exhaustive,
        samples=args.samples,
        seed=args.seed,
        budget=args.budget,
    )
    fixed = ("mean_length", "normalized_max", "bound")
    values = report._asdict()
    cells = ("" if v is None else f"{v:.3f}" if k in fixed else str(v) for k, v in values.items())
    _emit(args, values, ",".join(report._fields) + "\n" + ",".join(cells))
    return 0


def cmd_rewrite_ab(args) -> int:
    from .abwords import rewrite_word_ab
    from .formats import parse_word_text, word_to_json

    text = " ".join(args.tokens) if args.tokens else _read_text("-")
    w = parse_word_text(text, args.n)
    out = rewrite_word_ab(w)
    payload = {"input_length": len(w), "length": len(out), "word": word_to_json(out)}
    _emit(args, payload, out.tokens())
    return 0


def cmd_ab_table(args) -> int:
    from .abwords import eij_ab_word

    if args.n < 2:
        raise DomainError(f"dimension must be at least 2, got {args.n}")
    rows = []
    lines = []
    for i in range(1, args.n + 1):
        for j in range(1, args.n + 1):
            if i == j:
                continue
            w = eij_ab_word(i, j, args.n)
            rows.append({"i": i, "j": j, "length": len(w), "word": w.tokens()})
            lines.append(f"e({i},{j})  len={len(w):3d}  {w.tokens()}")
    _emit(args, {"n": args.n, "entries": rows}, "\n".join(lines))
    return 0


def cmd_bfs_diameter(args) -> int:
    from .bfs import bfs_diameter

    rep = bfs_diameter(args.n, args.p, args.alphabet, args.budget)
    payload = rep._asdict()
    hist = " ".join(f"{d}:{c}" for d, c in sorted(rep.histogram.items()))
    text = (
        f"SL_{rep.n}(F_{rep.p}) over {args.alphabet}: order={rep.order} "
        f"diameter={rep.diameter}\nhistogram: {hist}"
    )
    _emit(args, payload, text)
    return 0


def cmd_sl2_lowerbound(args) -> int:
    from .bfs import row_move_distances
    from .fibonacci import fib

    r = args.radius
    if r > SL2_RADIUS_LIMIT:
        raise DomainError(f"radius {r} exceeds the exhaustive limit of {SL2_RADIUS_LIMIT}")
    ball = row_move_distances(((1, 0, 0, 1),), 2, radius=r)
    bounds = [fib(d + 1) for d in range(r + 1)]  # the sup norm at distance d is at most F_(d+1)
    for key, d in ball.items():
        if max(map(abs, key)) > bounds[d]:
            raise InternalStateError(f"element {key} at distance {d} breaks the F_{d + 1} norm bound")
    dists = {k: ball.get((1, 0, k, 1)) for k in range(1, r + 1)}
    lines = [f"ball size at radius {r}: {len(ball)}"]
    lines += (f"d(e(2,1)^{k}) = {d}" for k, d in dists.items())
    lines.append("distance grows linearly in the exponent: no compression in SL_2")
    _emit(args, {"radius": r, "ball_size": len(ball), "distances": dists}, "\n".join(lines))
    return 0


def cmd_verify(args) -> int:
    from .core import MatFp, eval_word_fp, eval_word_z
    from .formats import parse_matrix_text, parse_word_text

    # the word comes from --word or from the tokens, else from stdin
    if args.word is not None and args.tokens:
        raise ParseError("the word comes from --word or from tokens, not both")
    word_path = args.word if args.word is not None else (None if args.tokens else "-")
    if args.matrix == "-" and word_path == "-":
        raise ParseError("the matrix and the word cannot both come from stdin")
    m = parse_matrix_text(_read_text(args.matrix))
    text = " ".join(args.tokens) if word_path is None else _read_text(word_path)
    w = parse_word_text(text, m.n)
    if isinstance(m, MatFp):
        got = eval_word_fp(w, m.p)
    else:
        got = eval_word_z(w)
    if got == m:
        print(f"MATCH length={len(w)}")
        return 0
    r, c = next((r, c) for r in range(m.n) for c in range(m.n) if got.rows[r][c] != m.rows[r][c])
    print("MISMATCH")
    print(
        f"first difference at row {r + 1}, column {c + 1}: "
        f"expected {m.rows[r][c]}, got {got.rows[r][c]}",
        file=sys.stderr,
    )
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cayley-nav",
        description="Constructive short words over elementary generators of SL_n.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("compress", help="word of logarithmic length for e(i,j)^m")
    s.add_argument("n", type=int)
    s.add_argument("i", type=int)
    s.add_argument("j", type=int)
    s.add_argument("m", type=int)
    s.add_argument("--aux", type=int, default=None, help="auxiliary index (default: smallest free)")
    s.add_argument("--modp", type=int, default=None, metavar="P", help="reduce the exponent mod the prime P")
    s.set_defaults(func=cmd_compress)

    s = sub.add_parser("zeckendorf", help="Fibonacci decomposition of a positive integer")
    s.add_argument("m", type=int)
    s.set_defaults(func=cmd_zeckendorf)

    s = sub.add_parser("gcd", help="reduce an integer tuple by row operations")
    s.add_argument("entries", type=int, nargs="+")
    s.add_argument("--active", type=int, default=None, help="reduce only the trailing k entries")
    s.add_argument("--trace", action="store_true")
    s.set_defaults(func=cmd_gcd)

    s = sub.add_parser("normal-form", help="word for an integer matrix with determinant 1")
    s.add_argument("path", nargs="?", default="-", help="matrix file, '-' for stdin")
    s.add_argument("--stats", action="store_true", help="summarize blank-line-separated matrices")
    s.set_defaults(func=cmd_normal_form)

    s = sub.add_parser("reduce-modp", help="word for a matrix over F_p with determinant 1")
    s.add_argument("path", nargs="?", default="-", help="matrix file with 'n p' header, '-' for stdin")
    s.set_defaults(func=cmd_reduce_modp)

    s = sub.add_parser("fp-report", help="word length statistics over SL_n(F_p), CSV by default")
    s.add_argument("n", type=int)
    s.add_argument("p", type=int)
    s.add_argument("--samples", type=int, default=200)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--exhaustive", action="store_true")
    s.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    s.set_defaults(func=cmd_fp_report)

    s = sub.add_parser("rewrite-ab", help="rewrite an elementary word over A and B")
    s.add_argument("n", type=int)
    s.add_argument("tokens", nargs="*", help="word tokens; stdin when omitted")
    s.set_defaults(func=cmd_rewrite_ab)

    s = sub.add_parser("ab-table", help="A,B words for every elementary generator")
    s.add_argument("n", type=int)
    s.set_defaults(func=cmd_ab_table)

    s = sub.add_parser("bfs-diameter", help="exact Cayley diameter of SL_n(F_p) by search")
    s.add_argument("n", type=int)
    s.add_argument("p", type=int)
    s.add_argument("--alphabet", choices=["elementary", "ab"], default="elementary")
    s.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    s.set_defaults(func=cmd_bfs_diameter)

    s = sub.add_parser("sl2-lowerbound", help="exact SL_2(Z) distances of e(2,1)^k")
    s.add_argument("radius", type=int)
    s.set_defaults(func=cmd_sl2_lowerbound)

    s = sub.add_parser("verify", help="check that a word evaluates to a matrix")
    s.add_argument("--matrix", required=True, help="matrix file, '-' for stdin")
    s.add_argument("--word", default=None, help="word file, '-' for stdin")
    s.add_argument("tokens", nargs="*", help="word tokens when no --word is given")
    s.set_defaults(func=cmd_verify)

    # added last, so --json follows each subcommand's own options in its usage line
    for name, s in sub.choices.items():
        if name != "verify":
            s.add_argument("--json", action="store_true")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout (as `| head` does): stop quietly with the
        # code a shell reports for SIGPIPE, and point stdout at the null
        # device so the flush at interpreter exit has nothing left to fail on
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except InternalStateError as exc:
        print(f"error: internal: InternalStateError: {exc}", file=sys.stderr)
        return 5
    except CayleyNavError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
