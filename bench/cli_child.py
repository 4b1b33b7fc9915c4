"""Traced stand-in for `python -m cayleynav.cli`, used by the traced cli run.

Usage: python bench/cli_child.py OUT.json ARG...

Times the import of cayleynav.cli, wraps the package's public functions,
runs cli.main(ARG...) and writes the spans and counters to OUT.json.  The
exit code and output are those of the CLI.
"""

import json
import sys
import time


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import cayleynav.cli as cli

    import_s = time.perf_counter() - t0
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    code = 1
    try:
        code = cli.main(argv)
    finally:
        sys.stdout.flush()
        counts = dict(tracer.counts, **{"cli.import_s": import_s})
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans(), "counts": counts, "absent": tracer.absent,
                       "misnested": tracer.misnested}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
