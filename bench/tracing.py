"""Spans around the package's public functions, recorded from outside.

Tracer.install wraps each function named in SPANS in every loaded module of
the package that holds it under that name, so a call through
`from .euclid import accelerated_reduce` is seen as well as one through the
package namespace.  A name that no longer exists is reported as absent.

Spans live in flat arrays (name, start, end, parent, op, error) until the
run ends; recording a call costs a few appends and a clock read on each
side.  Everything else is derived from the arrays at the end
(Tracer.totals): calls, self and inclusive seconds, errors, the self times
summed per op, and the nesting faults that would make those sums wrong.  A span's self time is its
duration minus the durations of its direct children.
"""

import array
import gzip
import importlib
import sys
import time
from dataclasses import dataclass, field

PACKAGE = "cayleynav"

SPANS = [
    "normalform.normal_form_result",
    "euclid.accelerated_reduce",
    "compression.compress_power",
    "compression.compress_power_modp",
    "fibonacci.zeckendorf",
    "core.eval_word_z",
    "core.eval_word_fp",
    "core.determinant",
    "core.determinant_fp",
    "core.is_prime",
    "modp.word_for_modp",
    "modp.diagonal_clear_gadget",
    "abwords.rewrite_word_ab",
    "bfs.bfs_diameter",
    "formats.parse_matrix_text",
    "formats.parse_word_text",
    "formats.word_to_json",
    "formats.format_word_text",
    "cli.main",
]

ROOT = "bench.op"


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs.get(name)


def _count_hooks():
    """Counters taken from a call's arguments and result, keyed by span name.

    Each hook gets (tracer, parent span name, args, kwargs, result).
    """

    def accelerated(t, parent, a, k, out):
        t.add("euclid.quotient_steps", len(out.quotient_steps))
        if parent == "modp.word_for_modp":
            t.add("modp.column_letters", len(out.word))

    def compress(t, parent, a, k, out):
        m = _arg(a, k, 3, "m")
        t.add("compression.letters", len(out))
        t.add("compression.exponent_bits", abs(m).bit_length())
        t.add("compression.chunks", 1)

    def compress_modp(t, parent, a, k, out):
        if parent == "modp.word_for_modp":
            t.add("modp.upper_letters", len(out))

    def gadget(t, parent, a, k, out):
        t.add("modp.gadget_letters", len(out))

    def eval_z(t, parent, a, k, out):
        t.add("core.eval_z.letters", len(_arg(a, k, 0, "w")))

    def eval_fp(t, parent, a, k, out):
        t.add("core.eval_fp.letters", len(_arg(a, k, 0, "w")))

    def rewrite(t, parent, a, k, out):
        t.add("abwords.letters_in", len(_arg(a, k, 0, "w")))
        t.add("abwords.letters_out", len(out))

    def bfs(t, parent, a, k, out):
        n = _arg(a, k, 0, "n")
        alphabet = _arg(a, k, 2, "alphabet") or "elementary"
        gens = 4 if alphabet == "ab" else 2 * n * (n - 1)
        t.add("bfs.states", out.order)
        t.add("bfs.edges", out.order * gens)

    return {
        "euclid.accelerated_reduce": accelerated,
        "compression.compress_power": compress,
        "compression.compress_power_modp": compress_modp,
        "modp.diagonal_clear_gadget": gadget,
        "core.eval_word_z": eval_z,
        "core.eval_word_fp": eval_fp,
        "abwords.rewrite_word_ab": rewrite,
        "bfs.bfs_diameter": bfs,
    }


@dataclass
class Totals:
    """What one pass over the spans gives."""

    calls: dict = field(default_factory=dict)  # name -> calls
    self_s: dict = field(default_factory=dict)  # name -> self seconds
    total_s: dict = field(default_factory=dict)  # name -> inclusive seconds
    errors: dict = field(default_factory=dict)  # name -> calls that raised
    op_name_s: dict = field(default_factory=dict)  # (op, name) -> inclusive seconds
    op_self: dict = field(default_factory=dict)  # op -> self seconds of all its spans
    op_root: dict = field(default_factory=dict)  # op -> duration of its root span
    outside: int = 0  # spans that start before or end after their parent
    overlapping: int = 0  # spans whose children add up to more than the span


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("q")
        self.op = array.array("q")
        self.error = bytearray()
        self.counts: dict[str, float] = {}
        self.absent: list[str] = []
        self.misnested = 0  # closes of a span that was not the innermost open one
        self._stack: list[int] = []
        self.current_op = -1
        self._patches: list[tuple] = []

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def _nid(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name.append(self._nid(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.end.append(0.0)
        self.error.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int, failed: bool = False) -> float:
        """End span idx and return its duration.  Closing a span that is not
        the innermost open one counts as a trace error in misnested."""
        t = time.perf_counter()
        self.end[idx] = t
        if self._stack and self._stack[-1] == idx:
            self._stack.pop()
        else:
            self.misnested += 1
            if idx in self._stack:
                self._stack.remove(idx)
        if failed:
            self.error[idx] = 1
        return t - self.start[idx]

    def parent_name(self) -> str | None:
        return self.names[self.name[self._stack[-1]]] if self._stack else None

    def adopt(self, spans, counts, misnested: int = 0) -> None:
        """Take over spans, counters and nesting faults recorded by a child
        process.

        spans are (name, start, end, parent index within the child or -1,
        error) in the child's order; perf_counter is system-wide on Linux, so
        their times share this process's clock.  Top-level child spans hang
        under the currently open span.
        """
        top = self._stack[-1] if self._stack else -1
        base = len(self.start)
        for name, start, end, parent, failed in spans:
            self.name.append(self._nid(name))
            self.start.append(start)
            self.end.append(end)
            self.parent.append(top if parent < 0 else base + parent)
            self.op.append(self.current_op)
            self.error.append(int(failed))
        for key, value in counts.items():
            self.add(key, value)
        self.misnested += misnested

    def totals(self) -> Totals:
        """Per-name and per-op sums, and nesting faults, from the span arrays."""
        names, start, end, parent, op = self.names, self.start, self.end, self.parent, self.op
        child = [0.0] * len(start)
        out = Totals()
        for k in range(len(start)):
            p = parent[k]
            if p >= 0:
                child[p] += end[k] - start[k]
                if start[k] < start[p] or end[k] > end[p]:
                    out.outside += 1
        for k in range(len(start)):
            name, dur, o = names[self.name[k]], end[k] - start[k], op[k]
            own = dur - child[k]
            if own < 0:
                out.overlapping += 1
            out.calls[name] = out.calls.get(name, 0) + 1
            out.self_s[name] = out.self_s.get(name, 0.0) + own
            out.total_s[name] = out.total_s.get(name, 0.0) + dur
            out.op_name_s[o, name] = out.op_name_s.get((o, name), 0.0) + dur
            out.op_self[o] = out.op_self.get(o, 0.0) + own
            if parent[k] < 0:
                out.op_root[o] = out.op_root.get(o, 0.0) + dur
            if self.error[k]:
                out.errors[name] = out.errors.get(name, 0) + 1
        return out

    def spans(self):
        """Finished spans as (name, start, end, parent, error) tuples."""
        return [
            (self.names[self.name[k]], self.start[k], self.end[k], self.parent[k], self.error[k])
            for k in range(len(self.start))
        ]

    def _wrap(self, name: str, fn, hook):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer.close(idx, failed=True)
                raise
            tracer.close(idx)
            if hook is not None:
                try:
                    hook(tracer, tracer.parent_name(), args, kwargs, out)
                except (AttributeError, TypeError):
                    # The call's signature or result changed shape: report
                    # its counters as absent rather than fail the call.
                    if f"{name} counters" not in tracer.absent:
                        tracer.absent.append(f"{name} counters")
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self, names=SPANS) -> None:
        """Wrap every named function wherever the package holds it by name."""
        hooks = _count_hooks()
        for full in names:
            mod_name, func = full.rsplit(".", 1)
            try:
                mod = importlib.import_module(f"{PACKAGE}.{mod_name}")
            except ImportError:
                self.absent.append(full)
                continue
            original = getattr(mod, func, None)
            if original is None:
                self.absent.append(full)
                continue
            wrapper = self._wrap(full, original, hooks.get(full))
            for mname, m in list(sys.modules.items()):
                if m is None or not (mname == PACKAGE or mname.startswith(PACKAGE + ".")):
                    continue
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._patches.append((m, attr, original, wrapper))
        self.enable(True)

    def enable(self, on: bool) -> None:
        """Switch the wrappers in or out, so an op can also be timed untraced."""
        for mod, attr, original, wrapper in self._patches:
            setattr(mod, attr, wrapper if on else original)

    def write(self, path) -> int:
        """Write every span as 'name start end parent op error' lines, gzipped."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("# name start_s end_s parent op error\n")
            names, start, end, parent, op, err = (
                self.names, self.start, self.end, self.parent, self.op, self.error)
            for idx in range(len(start)):
                fh.write(f"{names[self.name[idx]]} {start[idx]:.9f} {end[idx]:.9f} "
                         f"{parent[idx]} {op[idx]} {err[idx]}\n")
        return len(start)
