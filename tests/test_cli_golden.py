"""Golden command-line output: stdout and exit code of fixed invocations.

tests/cli_golden.json holds one record per invocation: its argv, its exit
code and its stdout split into lines.  The records cover every subcommand on
the catalog entries, bound and input-error cases, and the sim3 verify,
closure and is-algebraic runs that the closure engine decides exactly.  A
refactor must leave this output byte-identical; a failure lists every argv
whose output moved.
"""

import json
from pathlib import Path

from eqdom.cli import main

CASES = json.loads(
    (Path(__file__).with_name("cli_golden.json")).read_text(encoding="utf-8")
)


def test_cli_output_matches_the_golden_fixture(capsys):
    moved = []
    for case in CASES:
        code = main(list(case["argv"]))
        out = capsys.readouterr().out
        if (code, out) != (case["exit"], "".join(case["stdout"])):
            moved.append(case["argv"])
    assert not moved, "output moved for:\n" + "\n".join(" ".join(argv) for argv in moved)
