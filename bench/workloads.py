"""The four workloads and the closed loop that drives them.

One client, one op at a time, no threads.  A run goes once through the
workload's inputs, whose number gen.py fixes per workload, and checks
each op's output after its timer stops.  The work is fixed, so word-length
metrics depend only on the seed and the code, and a slow spell of the
machine slows the ops without changing which ops were measured.

With tracing on, every op runs twice: once plain, for the overhead ratio
and the baseline table, then inside a root span with the package's public
functions wrapped.
"""

import functools
import json
import math
import os
import random
import re
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import check
import gen
from pace import Pace
from tracing import ROOT, SPANS, Tracer

BENCH = Path(__file__).resolve().parent
ROOTDIR = BENCH.parent
OUT = BENCH / "out"

# Metrics printed by the traced run.  Span metrics are per op: calls and
# self seconds averaged over the run's ops, errors counted.
DERIVED = [
    ("normalform.phase1_letters", "count"),
    ("normalform.phase2_letters", "count"),
    ("normalform.phase3_letters", "count"),
    ("normalform.growth_ratio", "ratio"),
    ("euclid.quotient_steps", "count"),
    ("compression.letters", "count"),
    ("compression.exponent_bits_mean", "bits"),
    ("core.eval_z.letters_per_s", "1/s"),
    ("core.eval_fp.letters_per_s", "1/s"),
    ("modp.column_letters", "count"),
    ("modp.upper_letters", "count"),
    ("modp.gadget_letters", "count"),
    ("abwords.cancel_ratio", "ratio"),
    ("abwords.eij_cache_hit_ratio", "ratio"),
    ("bfs.states", "count"),
    ("bfs.edges", "count"),
    ("bfs.peak_bytes_per_state", "B"),
    ("cli.import_s", "s"),
    ("trace.overhead", "ratio"),
]
PER_LAYER = [
    (f"{span}.{kind}", unit)
    for span in SPANS
    for kind, unit in (("calls", "count"), ("self_s", "s"), ("errors", "count"))
] + DERIVED

SETUP_SAMPLES = 10

END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("letters_per_op", "count"),
    ("length_ratio", "ratio"),
]


class OpFailed(Exception):
    """The library's own check, an exit code or a known answer was wrong."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOTDIR / "src")
    return env


def setup_times(repeats: int) -> list[float]:
    """Wall seconds of fresh interpreters, each importing the package.

    -S skips site: it loads the machine's site-packages, which the package
    does not use and which took half of the start-up time on the machine the
    benchmark was tuned on.
    """
    cmd = [sys.executable, "-S", "-c", "import cayleynav"]
    env = _env()
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOTDIR, check=True, timeout=60)
        times.append(time.perf_counter() - t)
    return times


# ---------------------------------------------------------------- zint

def zint_prepare(cn, c):
    return cn.MatZ.from_rows(c["rows"])


def zint_op(cn, m, tracer):
    res = cn.normal_form_result(m)
    if cn.eval_word_z(res.word) != m:
        raise OpFailed("eval_word_z differs from the input")
    return res


def zint_check(c, res, rng):
    letters = check.letters_of(res.word)
    if check.eval_elementary(c["n"], letters) != c["rows"]:
        return False, {}
    info = {"letters": len(letters), "size": check.ln_norm(c["rows"]), "n": c["n"]}
    norms = getattr(res, "column_norms", None)
    if norms:
        info["ln_peak"] = math.log(max(norms))
    phases = getattr(res, "phase_lengths", None)
    if phases:
        info["phases"] = tuple(phases)
    return True, info


# ---------------------------------------------------------------- fp

def fp_prepare(cn, c):
    return cn.MatFp(c["n"], c["p"], tuple(map(tuple, c["rows"])))


def fp_op(cn, m, tracer):
    w = cn.word_for_modp(m)
    if cn.eval_word_fp(w, m.p) != m:
        raise OpFailed("eval_word_fp differs from the input")
    return w


def fp_check(c, w, rng):
    n, p = c["n"], c["p"]
    letters = check.letters_of(w)
    if check.eval_elementary(n, letters, p) != c["rows"]:
        return False, {}
    return True, {"letters": len(letters), "size": n * n * math.log(p), "n": n, "p": p}


# ---------------------------------------------------------------- oracle

def oracle_prepare(cn, c):
    if c["kind"] == "bfs":
        return (c["n"], c["p"], cn.ELEMENTARY if c["alphabet"] == "elementary" else cn.AB)
    return cn.Word(c["n"], tuple(cn.eletter(i, j, s) for i, j, s in c["word"]))


def oracle_op(cn, x, tracer):
    if isinstance(x, tuple):
        return cn.bfs_diameter(*x)
    return cn.rewrite_word_ab(x)


@functools.cache
def _expanded_length(i, j, n) -> int:
    """Length of the A/B piece for e(i, j) before free reduction, computed
    past the package's own cache so that its hit ratio stays the package's."""
    from cayleynav import abwords

    fn = getattr(abwords.eij_ab_word, "__wrapped__", abwords.eij_ab_word)
    return len(fn(i, j, n))


def oracle_check(c, out, rng):
    if c["kind"] == "bfs":
        n, p = c["n"], c["p"]
        order = check.group_order(n, p)
        ok = (out.order == order and out.diameter == c["diameter"]
              and sum(out.histogram.values()) == order)
        return ok, {"states": out.order}
    n = c["n"]
    letters = check.letters_of(out)
    if any(len(l) != 2 for l in letters):
        return False, {}
    if not check.same_group_element(n, c["word"], letters, rng):
        return False, {}
    before = sum(_expanded_length(i, j, n) for i, j, _ in c["word"])
    return True, {"letters": len(letters), "size": len(c["word"]), "expanded": before}


# ---------------------------------------------------------------- cli

def cli_prepare(cn, c):
    return c


def cli_op(cn, c, tracer):
    if tracer is None:
        cmd = [sys.executable, "-m", "cayleynav.cli", *c["argv"]]
    else:
        out_path = OUT / f"cli-child-{os.getpid()}.json"
        cmd = [sys.executable, str(BENCH / "cli_child.py"), str(out_path), *c["argv"]]
    proc = subprocess.run(cmd, input=c.get("stdin", ""), capture_output=True, text=True,
                          env=_env(), cwd=ROOTDIR, timeout=120)
    if tracer is not None:
        with open(out_path, encoding="utf-8") as fh:
            child = json.load(fh)
        os.unlink(out_path)
        tracer.adopt(child["spans"], child["counts"], child["misnested"])
        for name in child["absent"]:
            if name not in tracer.absent:
                tracer.absent.append(name)
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        raise OpFailed(f"{c['cmd']} exited {proc.returncode}: {tail[0]}")
    return proc.stdout


def _ints(text: str) -> list[int]:
    return [int(x) for x in text.replace(",", " ").split()]


def cli_check(c, out, rng):
    cmd = c["cmd"]
    if cmd == "compress":
        letters = check.parse_tokens(out)
        ok = check.eval_elementary(c["n"], letters) == check.power_matrix(c["n"], c["i"], c["j"], c["m"])
        return ok, {"letters": len(letters), "size": math.log(abs(c["m"]))}
    if cmd == "gcd":
        g = math.gcd(*c["entries"])
        finals = [_ints(s) for s in re.findall(r"final=\(([^)]*)\)", out)]
        ok = len(finals) == 2 and all(
            sorted(abs(x) for x in f if x) == [g] for f in finals)
        return ok, {}
    if cmd == "normal-form":
        letters = check.parse_tokens(out)
        ok = check.eval_elementary(len(c["rows"]), letters) == c["rows"]
        return ok, {"letters": len(letters), "size": check.ln_norm(c["rows"])}
    if cmd == "normal-form-stats":
        pat = r"n=(\d+) norm=(\d+) peak=(\d+) length=(\d+) phases=(\d+)/(\d+)/(\d+)"
        lines = [re.search(pat, ln) for ln in out.strip().splitlines()]
        ok = len(lines) == len(c["blocks"]) and all(lines)
        for m, b in zip(lines, c["blocks"]) if ok else ():
            n, norm, peak, length, a, b2, c3 = map(int, m.groups())
            ok = ok and n == len(b) and norm == check.sup_norm(b) and peak >= norm
            ok = ok and a + b2 + c3 == length
        return ok, {}
    if cmd == "reduce-modp":
        obj = json.loads(out)
        letters = [(d["i"], d["j"], d["e"]) for d in obj["word"]["letters"]]
        n, p = len(c["rows"]), c["p"]
        ok = (obj["p"] == p and obj["length"] == len(letters)
              and check.eval_elementary(n, letters, p) == c["rows"])
        return ok, {"letters": len(letters), "size": n * n * math.log(p)}
    if cmd == "fp-report":
        fields = out.strip().splitlines()[-1].split(",")
        order, mode, count = int(fields[2]), fields[3], int(fields[4])
        max_len, mean_len = int(fields[5]), float(fields[6])
        ok = (order == check.group_order(c["n"], c["p"]) and mode == "sampled"
              and count == c["samples"] and max_len >= mean_len > 0)
        return ok, {}
    if cmd == "rewrite-ab":
        letters = check.parse_tokens(out)
        ok = all(len(l) == 2 for l in letters) and check.same_group_element(
            c["n"], c["word"], letters, rng)
        return ok, {"letters": len(letters), "size": len(c["word"])}
    if cmd == "verify":
        return out.strip() == f"MATCH length={c['length']}", {}
    if cmd == "bfs-diameter":
        m = re.search(r"order=(\d+) diameter=(\d+)", out)
        ok = bool(m) and int(m.group(1)) == check.group_order(c["n"], c["p"]) \
            and int(m.group(2)) == c["diameter"]
        return ok, {}
    raise ValueError(f"unknown cli case {cmd!r}")


SPECS = {
    "zint": (zint_prepare, zint_op, zint_check),
    "fp": (fp_prepare, fp_op, fp_check),
    "oracle": (oracle_prepare, oracle_op, oracle_check),
    "cli": (cli_prepare, cli_op, cli_check),
}


# ---------------------------------------------------------------- loop

@dataclass
class Op:
    case: int
    start: float  # perf_counter at the start of the op
    raw_s: float  # wall time of the op
    scaled_s: float  # raw_s at the reference speed, see pace.py
    ok: bool
    info: dict
    traced_s: float | None = None  # the same op inside a root span, by the loop's clock


def _percentile(values, q: int) -> float:
    """q-th percentile (q in 10..90 by tens) of the values."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[q // 10 - 1]


def _geomean(values) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def run(workload: str, seed: int, trace: bool) -> dict:
    """Run one workload in this process and return its report."""
    import cayleynav as cn

    prepare, op, certify = SPECS[workload]
    cases = gen.make_inputs(workload, seed, traced=trace)
    prepared = [prepare(cn, c) for c in cases]
    rng = random.Random(f"check:{seed}")
    OUT.mkdir(exist_ok=True)

    tracer = None
    if trace:
        tracer = Tracer()
        if workload != "cli":
            tracer.install()
            tracer.enable(False)
        eij = getattr(getattr(cn, "eij_ab_word", None), "cache_info", None)
        cache0 = eij() if eij else None

    # Set-up is sampled before and after the loop, so that a slow spell of
    # the machine weighs on fewer of the samples.  The first sample compiles
    # the bytecode cache and is dropped.
    ops: list[Op] = []
    failures: list[str] = []
    bytes_per_state = []
    with Pace() as clock:
        setup_times(1)
        clock.tick(force=True)
        setup = setup_times(SETUP_SAMPLES // 2)
        clock.tick(force=True)
        for idx, (c, x) in enumerate(zip(cases, prepared)):
            out, err = None, None
            t = time.perf_counter()
            try:
                out = op(cn, x, None)
            except Exception as exc:  # a failed op is counted, never fatal
                err = f"{type(exc).__name__}: {exc}"
            rec = Op(idx, t, time.perf_counter() - t, 0.0, False, {})
            if tracer is not None and err is None:
                tracer.current_op = idx
                if workload != "cli":
                    tracer.enable(True)
                t = time.perf_counter()
                root = tracer.open(ROOT)
                try:
                    out = op(cn, x, tracer)
                except Exception as exc:
                    err = f"{type(exc).__name__}: {exc}"
                finally:
                    tracer.close(root, failed=err is not None)
                    rec.traced_s = time.perf_counter() - t
                    tracer.enable(False)
                if c.get("memory") and err is None:
                    tracemalloc.start()
                    try:
                        rep = op(cn, x, None)
                        bytes_per_state.append(tracemalloc.get_traced_memory()[1] / rep.order)
                    finally:
                        tracemalloc.stop()
            if err is None:
                try:
                    rec.ok, rec.info = certify(c, out, rng)
                except Exception as exc:
                    err = f"unreadable output: {type(exc).__name__}: {exc}"
                if err is None and not rec.ok:
                    err = "output failed the benchmark's check"
            if err is not None:
                rec.ok = False
                failures.append(f"{workload} input {idx}: {err}")
            ops.append(rec)
            clock.tick()
        clock.tick(force=True)
        setup += setup_times(SETUP_SAMPLES - len(setup))
        clock.tick(force=True)
    for rec in ops:
        rec.scaled_s = rec.raw_s * clock.scale(rec.start, rec.start + rec.raw_s)

    report = {
        "workload": workload,
        "seed": seed,
        "inputs": len(cases),
        "digest": gen.digest(cases),
        "attempted": len(ops),
        "failed": sum(1 for o in ops if not o.ok),
        "failures": failures[:20],
    }
    report["end_to_end"] = end_to_end(workload, ops, setup, clock)
    report["extra"] = extra_metrics(workload, ops, cases, setup, clock)
    if tracer is not None:
        totals = tracer.totals()
        report["per_layer"] = per_layer(tracer, totals, ops, bytes_per_state, cn, cache0)
        report["absent"] = tracer.absent
        report["accounting"] = accounting(tracer, totals, ops)
        report["tables"] = baseline_tables(workload, totals, ops, cn)
        name = f"spans-{workload}-seed{seed}.txt.gz"
        report["spans"] = {"file": str(Path("bench/out") / name), "count": tracer.write(OUT / name)}
    return report


def end_to_end(workload: str, ops: list[Op], setup, clock) -> dict:
    """The gated metrics as (value, sample count).

    Op times are at the reference speed.  setup_s is raw: start-up of a
    short process did not follow the reference's swings on the machine the
    benchmark was tuned on, and scaling it only added noise.
    """
    lat = [o.scaled_s for o in ops]
    words = [o.info for o in ops if o.ok and "letters" in o.info]
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    m = {
        "setup_s": (statistics.median(setup), len(setup)),
        "ops_per_s": (len(lat) / sum(lat), len(lat)),
        "op_p50_ms": (1e3 * _percentile(lat, 50), len(lat)),
        "op_p90_ms": (1e3 * _percentile(lat, 90), len(lat)),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, 1),
    }
    if words:
        m["letters_per_op"] = (statistics.fmean(w["letters"] for w in words), len(words))
        m["length_ratio"] = (_geomean(w["letters"] / w["size"] for w in words), len(words))
    return m


def extra_metrics(workload: str, ops: list[Op], cases, setup, clock) -> dict:
    """Raw times, error_rate, and the metrics only the oracle workload has."""
    raw = [o.raw_s for o in ops]
    m = {
        "error_rate": (sum(1 for o in ops if not o.ok) / len(ops), len(ops)),
        "raw_ops_per_s": (len(raw) / sum(raw), len(raw)),
        "raw_op_p50_ms": (1e3 * _percentile(raw, 50), len(raw)),
        "raw_op_p90_ms": (1e3 * _percentile(raw, 90), len(raw)),
        "speed": (clock.speed(), len(clock.samples)),
    }
    if workload == "oracle":
        bfs = [o for o in ops if o.ok and cases[o.case]["kind"] == "bfs"]
        rw = [o for o in ops if o.ok and cases[o.case]["kind"] == "rewrite"]
        if bfs:
            states = sum(o.info["states"] for o in bfs)
            m["states_per_s"] = (states / sum(o.scaled_s for o in bfs), len(bfs))
        if rw:
            letters_in = sum(o.info["size"] for o in rw)
            m["ab_letters_per_s"] = (letters_in / sum(o.scaled_s for o in rw), len(rw))
            m["ab_expansion"] = (sum(o.info["letters"] for o in rw) / letters_in, len(rw))
    return m


def per_layer(tracer, totals, ops: list[Op], bytes_per_state, cn, cache0) -> dict:
    """Span and counter metrics, per op of the run; raw times."""
    nops = max(1, len(ops))
    m = {}
    for span in SPANS:
        m[f"{span}.calls"] = totals.calls.get(span, 0) / nops
        m[f"{span}.self_s"] = totals.self_s.get(span, 0.0) / nops
        m[f"{span}.errors"] = totals.errors.get(span, 0)
    cnt = tracer.counts
    for key in ("euclid.quotient_steps", "compression.letters", "modp.column_letters",
                "modp.upper_letters", "modp.gadget_letters", "bfs.states", "bfs.edges"):
        m[key] = cnt.get(key, 0) / nops
    chunks = cnt.get("compression.chunks", 0)
    m["compression.exponent_bits_mean"] = cnt.get("compression.exponent_bits", 0) / chunks if chunks else 0.0
    for short, span in (("z", "core.eval_word_z"), ("fp", "core.eval_word_fp")):
        busy = totals.total_s.get(span, 0.0)
        m[f"core.eval_{short}.letters_per_s"] = cnt.get(f"core.eval_{short}.letters", 0) / busy if busy else 0.0
    infos = [o.info for o in ops if o.ok]
    phases = [i["phases"] for i in infos if "phases" in i]
    for p in range(3):
        m[f"normalform.phase{p + 1}_letters"] = statistics.fmean(ph[p] for ph in phases) if phases else 0.0
    growth = [i["ln_peak"] / i["size"] for i in infos if "ln_peak" in i]
    m["normalform.growth_ratio"] = _geomean(growth) if growth else 0.0
    expanded = sum(i.get("expanded", 0) for i in infos)
    kept = sum(i["letters"] for i in infos if "expanded" in i)
    m["abwords.cancel_ratio"] = (expanded - kept) / expanded if expanded else 0.0
    eij = getattr(getattr(cn, "eij_ab_word", None), "cache_info", None)
    hit = 0.0
    if eij and cache0 is not None:
        now = eij()
        looked = (now.hits - cache0.hits) + (now.misses - cache0.misses)
        hit = (now.hits - cache0.hits) / looked if looked else 0.0
    m["abwords.eij_cache_hit_ratio"] = hit
    m["bfs.peak_bytes_per_state"] = statistics.fmean(bytes_per_state) if bytes_per_state else 0.0
    m["cli.import_s"] = cnt.get("cli.import_s", 0.0) / nops
    traced = [o for o in ops if o.traced_s is not None]
    m["trace.overhead"] = (sum(o.traced_s for o in traced) / sum(o.raw_s for o in traced)) if traced else 0.0
    return m


def accounting(tracer, totals, ops: list[Op]) -> dict:
    """Check the trace against a clock of its own.

    Per op, the self times of all its spans (the layers' plus the untraced
    remainder, which is the root span's own) are compared with the op's
    traced time read around the root span by the loop, not by the tracer.
    Spans that reach outside their parent, spans whose children add up to
    more than they do, and closes out of order are nesting faults: any of
    them makes the self times wrong, and the report lists them.
    """
    traced = {o.case: o.traced_s for o in ops if o.traced_s is not None}
    worst = max((abs(totals.op_self.get(op, 0.0) - t) for op, t in traced.items()), default=0.0)
    remainder = totals.self_s.get(ROOT, 0.0)
    total = sum(traced.values())
    return {"ops": len(traced), "max_abs_error_s": worst,
            "untraced_remainder_share": remainder / total if total else 0.0,
            "outside": totals.outside, "overlapping": totals.overlapping,
            "misnested": tracer.misnested}


def baseline_tables(workload, totals, ops: list[Op], cn) -> list[str]:
    """The ROADMAP baseline table, regenerated from this run; raw times."""
    lines = []
    done = [o for o in ops if o.ok]
    if workload == "zint":
        spans = totals.op_name_s
        lines.append("| N | ops | ln‖m‖ | ln peak | word length | length / ln‖m‖ | op ms | normal form ms (traced) | eval ms (traced) |")
        lines.append("|---|---|---|---|---|---|---|---|---|")
        for n in sorted({o.info["n"] for o in done}):
            rows = [o for o in done if o.info["n"] == n]
            mean = lambda f: statistics.fmean(f(o) for o in rows)
            ln_m = mean(lambda o: o.info["size"])
            letters = mean(lambda o: o.info["letters"])
            lines.append(
                f"| {n} | {len(rows)} | {ln_m:.1f} | {mean(lambda o: o.info.get('ln_peak', 0.0)):.1f} | "
                f"{letters:,.0f} | {letters / ln_m:,.0f} | {1e3 * mean(lambda o: o.raw_s):.1f} | "
                f"{1e3 * mean(lambda o: spans.get((o.case, 'normalform.normal_form_result'), 0.0)):.1f} | "
                f"{1e3 * mean(lambda o: spans.get((o.case, 'core.eval_word_z'), 0.0)):.1f} |")
    elif workload == "fp":
        c_const = getattr(getattr(cn, "modp", None), "DEFAULT_C", None)
        lines.append(f"| N | p | ops | mean length | normalized max | vs DEFAULT_C = {c_const} | op ms |")
        lines.append("|---|---|---|---|---|---|---|")
        for n, p in gen.FP_CELLS:
            rows = [o for o in done if (o.info["n"], o.info["p"]) == (n, p)]
            if not rows:
                continue
            norm = max(o.info["letters"] for o in rows) / rows[0].info["size"]
            within = "-" if c_const is None else ("within" if norm <= c_const else "OVER")
            lines.append(
                f"| {n} | {p} | {len(rows)} | {statistics.fmean(o.info['letters'] for o in rows):,.0f} | "
                f"{norm:.2f} | {within} | {1e3 * statistics.fmean(o.raw_s for o in rows):.2f} |")
    return lines
