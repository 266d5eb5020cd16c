"""Run one bimult CLI command with the tracer installed.

    python3 perfbench/launch.py OUT.json <bimult arguments...>

The package is imported first, so the recorded import time is what a user
of ``python -m bimult.cli`` pays; then the tracer wraps the package and
``bimult.cli.main`` runs.  The span aggregate goes to OUT.json and the raw
spans to OUT.json.spans; the exit code is the command's.
"""

import json
import os
import sys
import time

t0 = time.perf_counter()
import bimult.cli  # noqa: E402

t_import = time.perf_counter() - t0
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from tracer import Tracer  # noqa: E402


def main() -> int:
    out = sys.argv[1]
    tracer = Tracer()
    tracer.install()
    tracer.spans.append(["cli.import", t0, t0 + t_import, -1, 0, t_import])
    tracer.counters["cli.import_s"] = t_import
    tracer.counters["cli.processes"] = 1
    tracer.enabled = True
    try:
        code = bimult.cli.main(sys.argv[2:])
    finally:
        tracer.enabled = False
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(tracer.aggregate(), fh)
        tracer.write_spans(out + ".spans")
    return code


if __name__ == "__main__":
    sys.exit(main())
