"""Seeded benchmark of cayley-nav against the package under src/.

    python3 bench/run.py [--workload zint|fp|oracle|cli|all] [--seed N]
                         [--trace 0|1] [--seconds 20]

Workloads (BENCHMARK.json says why each exists):
  zint    certified normal forms over SL_N(Z), N = 3..7
  fp      certified words over SL_N(F_p), the acceptance-08 grid plus 31/61-bit p
  oracle  exhaustive BFS diameters, then A/B rewriting of long elementary words
  cli     one fresh `python -m cayleynav.cli` process per op, nine subcommands

An op in zint/fp is the library call that builds the word plus the
library's own exact check of it; in oracle one bfs_diameter or
rewrite_word_ab call; in cli one process.  Every output is then checked
again by the benchmark's own evaluators, outside the timed region.  One
client runs one op at a time.  The seed fixes the inputs; their number is
fixed per workload (gen.ROUNDS), sized so that a run takes about 20 s on a
shared 2-core machine.  --seconds is accepted only as that run length: the
bounds in BENCHMARK.json hold for these inputs, so any other value is refused.

With --trace 0 the last line of output is a JSON object holding the
end-to-end metrics; op times in it are scaled to a reference speed (see
pace.py) and the raw ones are printed above it.  With --trace 1 it holds
the per-layer metrics, taken from spans around the package's public
functions.  Each run writes bench/out/result-<workload>-seed<seed>-trace<t>.json
with the commit, the Python version and the CPU count; a traced run also
writes its spans.  Exit code 2 means the package could not be found or a
workload failed to run at all; failed ops are counted, never fatal.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import gen

BENCH = Path(__file__).resolve().parent
ROOTDIR = BENCH.parent
WORKLOADS = ("zint", "fp", "oracle", "cli")


def commit() -> str:
    """HEAD of the checkout's git repository, or 'unknown' outside one."""
    git = ROOTDIR / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            path = git / ref
            if path.exists():
                return path.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "unknown"


def _fmt(value: float) -> str:
    return f"{value:.6g}" if abs(value) < 1e6 else f"{value:,.0f}"


def print_report(rep: dict, units: dict) -> None:
    print(f"== {rep['workload']}  seed={rep['seed']}  inputs={rep['inputs']}  "
          f"digest={rep['digest']}  attempted={rep['attempted']}  failed={rep['failed']}")
    for msg in rep["failures"]:
        print(f"   FAILED {msg}")
    for name, (value, samples) in {**rep["end_to_end"], **rep["extra"]}.items():
        print(f"   {name:<18} {_fmt(value):>14} {units.get(name, ''):<6} n={samples}")
    if "per_layer" in rep:
        acc = rep["accounting"]
        print(f"   trace: {rep['spans']['count']} spans in {rep['spans']['file']}; per op, "
              f"layer self times plus the untraced remainder "
              f"({100 * acc['untraced_remainder_share']:.1f}%) match the traced op time "
              f"read by the loop's own clock within {acc['max_abs_error_s']:.2e} s over "
              f"{acc['ops']} ops; nesting faults: {acc['outside']} spans outside their parent, "
              f"{acc['overlapping']} with overlapping children, {acc['misnested']} closed out of order")
        if rep["absent"]:
            print(f"   absent (not in the package): {', '.join(rep['absent'])}")
        for name, value in rep["per_layer"].items():
            if value:
                print(f"   {name:<42} {_fmt(value):>14}")
        for line in rep["tables"]:
            print("   " + line)


def run_one(args) -> int:
    src = ROOTDIR / "src"
    if not (src / "cayleynav" / "__init__.py").is_file():
        print(f"error: no package at {src / 'cayleynav'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import cayleynav
    import workloads

    if Path(cayleynav.__file__).resolve().parent != (src / "cayleynav").resolve():
        print(f"error: imported cayleynav from {cayleynav.__file__}, not {src}", file=sys.stderr)
        return 2
    rep = workloads.run(args.workload, args.seed, bool(args.trace))
    rep["environment"] = {"commit": commit(), "python": platform.python_version(),
                          "nproc": os.cpu_count()}
    units = dict(workloads.END_TO_END)
    units.update({f"raw_{k}": u for k, u in workloads.END_TO_END if k != "setup_s"},
                 error_rate="ratio", speed="ratio", states_per_s="1/s",
                 ab_letters_per_s="1/s", ab_expansion="ratio")
    env = rep["environment"]
    print(f"commit={env['commit']} python={env['python']} nproc={env['nproc']}")
    print_report(rep, units)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (BENCH / "out" / name).write_text(json.dumps(rep, indent=1, default=str))

    if args.trace:
        metrics = {k: {"value": rep["per_layer"][k], "unit": u} for k, u in workloads.PER_LAYER}
    else:
        metrics = {k: {"value": rep["end_to_end"].get(k, (0.0, 0))[0], "unit": u}
                   for k, u in workloads.END_TO_END}
    print(json.dumps({"correct": rep["failed"] == 0, "attempted": rep["attempted"],
                      "failed": rep["failed"], "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh interpreter; one combined summary."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", w, "--seed", str(args.seed),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOTDIR)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            print(f"error: workload {w} exited {proc.returncode}", file=sys.stderr)
            return 2
        res = json.loads(lines[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        total["metrics"].update({f"{w}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(total))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seconds", type=int, choices=(gen.RUN_SECONDS,),
                    help="the run length the fixed inputs are sized for; no other value")
    args = ap.parse_args()
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
