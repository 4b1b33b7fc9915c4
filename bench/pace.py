"""The machine's speed, measured with a fixed computation of the benchmark's own.

On the shared 2-core machine the benchmark was tuned on, the same op on
the same input took anywhere from 1x to 1.8x as long from one minute to the
next, in spells of one to tens of seconds, which would bury any regression
the bounds are meant to catch.  So the loop has reference() timed between
ops, outside their timers, every INTERVAL_S, and every op time the benchmark
gates on is scaled by REFERENCE_S over the mean reference time measured
within WINDOW_S of the op: it reads as the time on a machine where
reference() takes REFERENCE_S.  Raw times are reported as well.

reference() runs in a helper process of its own, started in isolated mode
(python -I), which never imports the package.  A slowdown the package
causes in its own process (memory it keeps alive, a gc or sys setting it
changes, a trace hook it leaves on) therefore slows the ops but not the
reference, and shows in the scaled times.  reference() does the kind of
work the package does (big-integer row operations, tuples as dict keys) but
shares no code with it.

Run as a script, this file is that helper: for each line read on stdin it
times reference() once and writes the seconds on a line of stdout.
"""

import random
import subprocess
import sys
import time

REFERENCE_S = 0.006
INTERVAL_S = 0.4
WINDOW_S = 1.0

_rng = random.Random("pace")
_WORD = [(*_rng.sample(range(1, 6), 2), _rng.choice((1, -1))) for _ in range(2700)]


def reference() -> int:
    """Fixed work: a 2700-letter product in dimension 5 over Z, then 6000
    updates of a dict keyed by small tuples.  Everything it allocates is
    freed before it returns, so its speed does not depend on how much memory
    the process already holds."""
    rows = [[int(r == c) for c in range(5)] for r in range(5)]
    for i, j, s in _WORD:
        rows[i - 1] = [x + s * y for x, y in zip(rows[i - 1], rows[j - 1])]
    counts: dict = {}
    for k in range(6000):
        key = (k * 7 % 97, k % 13)
        counts[key] = counts.get(key, 0) + 1
    return len(counts) + len(rows)


def serve() -> None:
    """The helper's loop; it ends when stdin closes."""
    for _ in range(3):
        reference()
    for _ in sys.stdin:
        t = time.perf_counter()
        reference()
        print(repr(time.perf_counter() - t), flush=True)


class Pace:
    """Reference timings taken through a run, and the scale they imply.

    Use it as a context manager, so the helper process is always stopped.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, seconds)
        self._next = 0.0
        self._proc = subprocess.Popen([sys.executable, "-I", __file__], stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE, text=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()

    def tick(self, force: bool = False) -> None:
        """Time reference() if INTERVAL_S has passed since the last sample."""
        t = time.perf_counter()
        if force or t >= self._next:
            self._proc.stdin.write("\n")
            self._proc.stdin.flush()
            line = self._proc.stdout.readline()
            if not line:
                raise RuntimeError(f"the pace helper exited with {self._proc.wait()}")
            d = float(line)
            self.samples.append((t, d))
            self._next = time.perf_counter() + INTERVAL_S

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the mean reference time within WINDOW_S of
        [start, end], or of the nearest sample if none is that close."""
        near = [d for t, d in self.samples if start - WINDOW_S <= t <= end + WINDOW_S]
        if not near:
            near = [min(self.samples, key=lambda s: abs(s[0] - start))[1]]
        return REFERENCE_S * len(near) / sum(near)

    def speed(self) -> float:
        """REFERENCE_S over the run's mean reference time."""
        return REFERENCE_S * len(self.samples) / sum(d for _, d in self.samples)


if __name__ == "__main__":
    serve()
