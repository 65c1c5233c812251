"""Golden command-line output: stdout and exit code of fixed invocations.

tests/cli_golden.json holds one record per invocation: its argv, its exit
code and its stdout split into lines.  The records cover every subcommand on
the catalog entries that answer in well under a second, plus bound and
input-error cases; the slow sim3 verify and closure runs are pinned in
test_cli.py instead.  A refactor must leave this output byte-identical.
"""

import json
from pathlib import Path

from eqdom.cli import main

CASES = json.loads(
    (Path(__file__).with_name("cli_golden.json")).read_text(encoding="utf-8")
)


def test_cli_output_matches_the_golden_fixture(capsys):
    for case in CASES:
        code = main(list(case["argv"]))
        out = capsys.readouterr().out
        assert (code, out) == (case["exit"], "".join(case["stdout"])), case["argv"]
