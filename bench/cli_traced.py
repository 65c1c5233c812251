"""Runs eqdom's command line like `python -m eqdom`, with layer spans recorded.

    python3 bench/cli_traced.py OUT.json ARGS...

Writes the import times of numpy and eqdom.cli, the wall time of main() and
the per-layer totals to OUT.json, then exits with main()'s code.
"""

import json
import sys
import time

t0 = time.perf_counter()
import numpy  # noqa: E402,F401  (timed on its own: numpy is most of the import)
t1 = time.perf_counter()
import eqdom.cli  # noqa: E402
t2 = time.perf_counter()

import spans  # noqa: E402

tracer = spans.Tracer()
tracer.install()
tracer.phase = "run"
start = time.perf_counter()
code = eqdom.cli.main(sys.argv[2:])
main_s = time.perf_counter() - start
sys.stdout.flush()
with open(sys.argv[1], "w", encoding="utf-8") as fh:
    json.dump({"numpy_import_s": t1 - t0, "import_s": t2 - t0, "main_s": main_s,
               "layers": tracer.totals()}, fh)
sys.exit(code)
