"""Command line behavior: output text, exit codes, determinism."""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import eqdom
from eqdom.cli import main
from eqdom.geometry import CertificateError, ed_verdict

CHAIN2_TEXT = """\
elements e f
row e: e f
row f: f f
"""


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse rejects bad flags this way
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_info_chain2(capsys):
    code, out, err = run(capsys, "info", "--catalog", "chain2")
    assert code == 0 and err == ""
    assert out == (
        "eqdom 0.1.0\n"
        "semigroup: chain2\n"
        "order: 2\n"
        "elements: e f\n"
        "inverse: yes\n"
        "group: no\n"
        "idempotents: 2 (e f)\n"
        "zero: f\n"
        "identity: e\n"
        "idempotent-order: chain\n"
    )


def test_info_no_header_and_incomparable_line(capsys):
    code, out, _ = run(capsys, "info", "--catalog", "brandt_b2", "--no-header")
    assert code == 0
    assert not out.startswith("eqdom")
    assert "idempotent-order: incomparable (e11, e22)" in out


def test_hasse_stdout_and_file(capsys, tmp_path):
    code, out, _ = run(capsys, "hasse", "--catalog", "chain2", "--no-header")
    assert code == 0
    assert '"f" -> "e";' in out
    target = tmp_path / "order.dot"
    code, out, _ = run(capsys, "hasse", "--catalog", "chain2", "--dot", str(target))
    assert code == 0
    assert f"wrote {target}" in out
    assert '"f" -> "e";' in target.read_text(encoding="utf-8")
    missing = tmp_path / "absent" / "order.dot"
    code, out, err = run(capsys, "hasse", "--catalog", "chain2", "--dot", str(missing))
    assert code == 2 and out == "" and err.startswith("error: ")


def test_embed_chain2(capsys):
    code, out, _ = run(capsys, "embed", "--catalog", "chain2", "--no-header")
    assert code == 0
    assert out == (
        "semigroup: chain2\n"
        "e: {e f} -> e f\n"
        "f: {f} -> - f\n"
    )


def test_solve_idempotency(capsys):
    code, out, _ = run(
        capsys, "solve", "--catalog", "z2_zero", "--eq", "x1 x1 = x1"
    )
    assert code == 0
    assert "system: x1 x1 = x1\n" in out
    assert "arity: 1\n" in out
    assert out.endswith("solutions: 2\n(1)\n(0)\n")


def test_solve_requires_an_equation(capsys):
    code, out, err = run(capsys, "solve", "--catalog", "chain2")
    assert code == 2
    assert "no equations" in err


def test_solve_infers_arity_at_least_one(capsys):
    # x0 names no variable: an input error at the inferred arity 1, never
    # a system of arity 0
    code, out, err = run(capsys, "solve", "--catalog", "chain2", "--eq", "x0 = e")
    assert (code, out) == (2, "")
    assert "variable x0 out of range for arity 1" in err
    assert "arity 0" not in err


def test_solve_infers_arity_and_accepts_multiple_equations(capsys):
    code, out, _ = run(
        capsys, "solve", "--catalog", "chain2",
        "--eq", "x1 x2 = x1", "--eq", "x2 = e",
    )
    assert code == 0
    assert "arity: 2\n" in out
    # x1 x2 = x1 with x2 = e holds for every x1 over the chain
    assert "solutions: 2\n(e,e)\n(f,e)\n" in out


def test_closure_with_catalog_and_points(capsys):
    # the first point must not be mistaken for a table-file argument
    code, out, _ = run(
        capsys, "closure", "--catalog", "brandt_b2", "(e11)", "(e22)"
    )
    assert code == 1
    assert "closure-size: 3\n" in out
    assert "members:\n(e11)\n(e22)\n(0)\n" in out
    assert out.endswith("verdict: no\nwitness: (0)\n")


def test_closure_of_a_closed_set_says_yes(capsys):
    code, out, _ = run(
        capsys, "is-algebraic", "--catalog", "brandt_b2",
        "(e11)", "(e22)", "(0)",
    )
    assert code == 0
    assert out.endswith("exact: true\nverdict: yes\n")
    assert "members:" not in out


def test_closure_unknown_when_truncated(capsys):
    code, out, _ = run(
        capsys, "closure", "--catalog", "sim3", "--max-cells", "10", "(123)"
    )
    assert code == 3
    assert "exact: false\n" in out
    assert "verdict: unknown" in out


def test_point_parsing_errors(capsys):
    code, _, err = run(capsys, "closure", "--catalog", "chain2", "(nosuch)")
    assert code == 2 and "unknown element" in err
    code, _, err = run(capsys, "closure", "--catalog", "chain2", "(e)", "(e,f)")
    assert code == 2 and err == "error: points of mixed arity: [1, 2]\n"
    code, _, err = run(
        capsys, "closure", "--catalog", "chain2", "--arity", "2", "(e)"
    )
    assert code == 2 and "--arity 2" in err
    code, _, err = run(capsys, "closure", "--catalog", "chain2", "()")
    assert code == 2 and "empty point" in err
    for point in ("(e,,f)", "(e,)"):
        code, out, err = run(capsys, "closure", "--catalog", "chain2", point)
        assert code == 2 and out == "" and "empty coordinate" in err
    for value in ("-5", "0"):
        code, out, err = run(capsys, "closure", "--catalog", "chain2", "--max-cells", value, "e")
        assert code == 2 and out == "" and "argument --max-cells" in err


def test_verify_chain2_full_output(capsys):
    code, out, _ = run(capsys, "verify", "--catalog", "chain2")
    assert code == 0
    assert out == (
        "eqdom 0.1.0\n"
        "semigroup: chain2\n"
        "verdict: NotED\n"
        "\n"
        "kind: ZeroPresent\n"
        "semigroup: chain2\n"
        "idempotents: f\n"
        "union: -\n"
        "witness: -\n"
        "closure-size: -\n"
        "exact: -\n"
        "\n"
        "kind: ChainWitness\n"
        "semigroup: chain2\n"
        "idempotents: e, f\n"
        "union: (e,e), (e,f), (f,e)\n"
        "witness: (f,f)\n"
        "closure-size: 4\n"
        "exact: true\n"
        "\n"
        "revalidation: ok\n"
    )


def test_verify_group_is_out_of_scope(capsys):
    code, out, _ = run(capsys, "verify", "--catalog", "z5")
    assert code == 0
    assert "verdict: GroupOutOfScope\n" in out
    assert "kind: GroupOutOfScope\n" in out
    assert "revalidation: ok\n" in out


def test_verify_sim3_reports_truncation_but_stays_certified(capsys):
    code, out, _ = run(capsys, "verify", "--catalog", "sim3", "--max-cells", "10")
    assert code == 0
    assert "verdict: NotED\n" in out
    assert "truncated: clone truncated; closure is not exact\n" in out
    assert "kind: ZeroPresent\n" in out
    assert "revalidation: ok\n" in out


def test_verify_zero_free_non_group_from_a_table_file(capsys, tmp_path):
    # Z2 with an identity adjoined: not a group and no zero, so the chain
    # i > 1 of its idempotents alone certifies the verdict
    path = tmp_path / "z2i.tbl"
    path.write_text("elements i 1 a\nrow i: i 1 a\nrow 1: 1 1 a\nrow a: a a 1\n", encoding="utf-8")
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    assert "verdict: NotED\n" in out
    assert out.count("kind: ") == 1
    assert "kind: ChainWitness\n" in out
    assert "witness: (1,1)\nclosure-size: 9\n" in out
    assert out.endswith("revalidation: ok\n")
    code, out, _ = run(capsys, "verify", str(path), "--max-cells", "1")
    assert code == 3
    assert out.endswith(
        "verdict: NotED (not certified at this size)\n"
        "truncated: clone truncated; closure is not exact\n"
    )


def test_verify_reports_a_failed_revalidation(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise CertificateError("forced gap")

    monkeypatch.setattr("eqdom.cli.validate_verdict", fail)
    code, out, _ = run(capsys, "verify", "--catalog", "chain2")
    assert code == 1
    assert out.endswith("\nrevalidation: FAILED (forced gap)\n")


def test_verify_rosenblatt_reports_a_failed_revalidation(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise CertificateError("forced gap")

    monkeypatch.setattr("eqdom.cli.validate_certificate", fail)
    code, out, _ = run(capsys, "verify", "--catalog", "chain2", "--rosenblatt")
    assert code == 1
    assert out.endswith("\nrevalidation: FAILED (forced gap)\n")


def test_verify_rechecks_the_verdict_status(capsys, monkeypatch):
    # chain2 is not a group: a verdict that says otherwise fails the recheck,
    # though each of its certificates is sound
    def forged(sg, **kwargs):
        return ed_verdict(sg, **kwargs).replace(status="GroupOutOfScope")

    monkeypatch.setattr("eqdom.cli.ed_verdict", forged)
    code, out, _ = run(capsys, "verify", "--catalog", "chain2")
    assert code == 1
    assert "verdict: GroupOutOfScope\n" in out
    assert out.endswith(
        "\nrevalidation: FAILED (status GroupOutOfScope does not fit this semigroup)\n"
    )


def test_verify_rosenblatt_chain2(capsys):
    code, out, _ = run(capsys, "verify", "--catalog", "chain2", "--rosenblatt")
    assert code == 0
    assert "check: rosenblatt-union\n" in out
    assert "result: not-algebraic\n" in out
    assert "witness: (e,f,e,f)\n" in out
    assert "closure-size: 16\n" in out
    assert "revalidation: ok\n" in out


def test_verify_rosenblatt_trivial_is_algebraic(capsys):
    code, out, _ = run(capsys, "verify", "--catalog", "trivial", "--rosenblatt")
    assert code == 0
    assert "result: algebraic (no certificate)\n" in out


def test_table_file_input(capsys, tmp_path):
    path = tmp_path / "chain2.tbl"
    path.write_text(CHAIN2_TEXT, encoding="utf-8")
    code, out, _ = run(capsys, "info", str(path), "--no-header")
    assert code == 0
    assert out.startswith("semigroup: chain2.tbl\n")
    code, out, _ = run(capsys, "closure", str(path), "(e)", "--no-header")
    assert code == 0
    assert "verdict: yes" in out


# the first operand is the table file unless --catalog is given
OPERAND_ORDERS = [
    (["closure", "T", "--no-header", "e", "f"], 0, "input: (e), (f)\n"),
    (["is-algebraic", "T", "--max-cells", "100", "e"], 0, "input: (e)\n"),
    (["closure", "--catalog", "z2", "1", "--arity", "1", "a"], 0, "input: (1), (a)\n"),
    (["closure", "--no-header", "T", "e", "--arity", "1", "f"], 0, "input: (e), (f)\n"),
    (["info", "--no-header", "T"], 0, "semigroup: T\n"),
    (["closure", "T"], 2, "no points given"),
    (["closure", "T", "e", "--bogus"], 2, "unrecognized arguments: --bogus"),
    (["info", "T", "T"], 2, "unrecognized arguments: T"),
    (["info", "--catalog", "chain2", "--max-cells", "10"], 2, "unrecognized arguments: --max-cells"),
]


@pytest.mark.parametrize("argv, code, text", OPERAND_ORDERS, ids=[" ".join(a) for a, _, _ in OPERAND_ORDERS])
def test_operands_and_options_in_any_order(capsys, tmp_path, monkeypatch, argv, code, text):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "T").write_text(CHAIN2_TEXT, encoding="utf-8")
    got, out, err = run(capsys, *argv)
    assert got == code
    assert text in (out if code == 0 else err)


def test_input_source_errors(capsys, tmp_path):
    code, _, err = run(capsys, "info")
    assert code == 2 and "no semigroup given" in err
    path = tmp_path / "chain2.tbl"
    path.write_text(CHAIN2_TEXT, encoding="utf-8")
    code, _, err = run(capsys, "info", str(path), "--catalog", "chain2")
    assert code == 2 and "not both" in err
    code, _, err = run(capsys, "info", str(tmp_path / "absent.tbl"))
    assert code == 2
    bad = tmp_path / "bad.tbl"
    bad.write_text("elements e f\nrow e: e\n", encoding="utf-8")
    code, _, err = run(capsys, "info", str(bad))
    assert code == 2 and "line 2" in err
    not_utf8 = tmp_path / "binary.tbl"
    not_utf8.write_bytes(b"\xff\xfe")
    code, out, err = run(capsys, "info", str(not_utf8))
    assert code == 2 and out == "" and "utf-8" in err


def test_table_file_with_byte_order_mark_and_crlf(capsys, tmp_path):
    # same basename, so the label line matches too
    (tmp_path / "plain").mkdir()
    (tmp_path / "marked").mkdir()
    plain = tmp_path / "plain" / "chain2.tbl"
    plain.write_text(CHAIN2_TEXT, encoding="utf-8")
    marked = tmp_path / "marked" / "chain2.tbl"
    marked.write_bytes(b"\xef\xbb\xbf" + CHAIN2_TEXT.replace("\n", "\r\n").encode())
    assert run(capsys, "info", str(marked)) == run(capsys, "info", str(plain))
    code, out, err = run(capsys, "info", str(marked))
    assert code == 0 and err == "" and "elements: e f\n" in out


def test_equation_text_errors(capsys):
    code, _, err = run(capsys, "solve", "--catalog", "chain2", "--eq", "x1 x1")
    assert code == 2 and "exactly one '='" in err
    code, _, err = run(capsys, "solve", "--catalog", "chain2", "--eq", "x1 = ")
    assert code == 2 and "empty input" in err
    code, _, err = run(capsys, "solve", "--catalog", "chain2", "--eq", "x1 = (e")
    assert code == 2 and "unclosed" in err
    code, _, err = run(
        capsys, "solve", "--catalog", "chain2", "--arity", "1", "--eq", "x2 = e"
    )
    assert code == 2 and "out of range" in err
    for flag, value, message in (
        ("--arity", "-3", "argument --arity"),
        ("--arity", "0", "argument --arity"),
        ("--arity", "abc", "must be an integer >= 1, got 'abc'"),
        # solve reads no cell cap, so it does not take the flag
        ("--max-cells", "-5", "unrecognized arguments: --max-cells"),
    ):
        code, out, err = run(capsys, "solve", "--catalog", "chain2", flag, value, "--eq", "e=e")
        assert code == 2 and out == "" and message in err


@pytest.mark.parametrize("argv", [
    ["info"], ["hasse"], ["embed"], ["solve", "--eq", "e=e"],
], ids=lambda argv: argv[0])
def test_max_cells_only_on_closure_commands(capsys, argv):
    code, out, err = run(capsys, *argv, "--catalog", "chain2", "--max-cells", "10")
    assert code == 2 and out == "" and "unrecognized arguments: --max-cells" in err


def test_output_is_deterministic(capsys):
    first = run(capsys, "verify", "--catalog", "brandt_b2")
    second = run(capsys, "verify", "--catalog", "brandt_b2")
    assert first == second


@pytest.mark.parametrize("term", [
    "x1^99999999",
    "x1^990",
    " ".join(["x1"] * 1200),
    "(" * 1000 + "x1" + ")" * 1000,
], ids=["huge-exponent", "long-power", "long-product", "deep-nesting"])
def test_oversized_terms_are_input_errors(capsys, term):
    code, out, err = run(capsys, "solve", "--catalog", "chain2", "--eq", f"{term} = e")
    assert code == 2 and out == ""
    assert err.startswith("error: ")
    assert "more than 100 literals" in err or "nested deeper than 100" in err


def test_solve_respects_the_point_bound(capsys):
    code, out, _ = run(
        capsys, "solve", "--catalog", "sim3", "--arity", "6",
        "--eq", "x1 x2 x3 x4 x5 x6 = 123",
    )
    assert code == 3
    assert out.endswith(
        "arity: 6\n"
        "solutions: unknown (solution set over arity 6 needs 1544804416 points, "
        "bound is 20000)\n"
    )
    code, out, _ = run(capsys, "solve", "--catalog", "sim3", "--arity", "5000", "--eq", "x1 = 123")
    assert code == 3
    assert out.endswith(
        "solutions: unknown (solution set over arity 5000 needs more than 2^64 points, "
        "bound is 20000)\n"
    )
    # the count is printed up to 2^64 and not past it, on either side of the
    # shortcut that keeps a large power from being computed
    for arity, count in (
        (40, "12157665459056928801"), (41, "more than 2^64"), (64, "more than 2^64")
    ):
        code, out, _ = run(
            capsys, "solve", "--catalog", "z3", "--arity", str(arity), "--eq", "x1 = 1"
        )
        assert code == 3
        assert out.endswith(
            f"solutions: unknown (solution set over arity {arity} needs {count} points, "
            "bound is 20000)\n"
        )
    # S^arity is one point on the trivial semigroup, but a point too long to build
    for argv in (("--arity", "100000", "--eq", "x1 = e"), ("--eq", "x100000 = e")):
        code, out, _ = run(capsys, "solve", "--catalog", "trivial", *argv)
        assert code == 3
        assert out.endswith(
            "arity: 100000\n"
            "solutions: unknown (solution set over arity 100000 needs points of "
            "100000 coordinates, bound is 20000)\n"
        )


def test_import_loads_no_numpy_and_no_goodterms():
    # eqdom has no runtime dependency, so a CLI call must not pay for numpy;
    # nor for eqdom.goodterms, which no CLI command calls; nor for
    # dataclasses and the inspect module it imports, which a bare
    # interpreter does not load
    src = str(Path(eqdom.__file__).resolve().parents[1])
    code = (
        "import sys, eqdom, eqdom.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy')); "
        "print('eqdom.goodterms' in sys.modules); "
        "print([m for m in ('dataclasses', 'inspect') if m in sys.modules])"
    )
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout == "[]\nFalse\n[]\n"


def test_python_dash_m_runs_main(capsys):
    argv = ["verify", "--catalog", "brandt_b2"]
    src = str(Path(eqdom.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run(
        [sys.executable, "-m", "eqdom", *argv], capture_output=True, text=True, env=env
    )
    assert (result.returncode, result.stdout, result.stderr) == run(capsys, *argv)


# hostile command lines: each subcommand or an unknown one; a catalog entry,
# an unknown name, a table file, both or neither; --arity and --max-cells at
# their extremes; malformed points and equations; stray tokens; all in any
# order.  The catalog entries have at most three elements and the table
# texts at most two: on brandt_b2 and sim2, `verify --rosenblatt` with a
# cap of 10^12 cells runs for minutes, which is work asked for, not a fault
_NAMES = ["e", "f", "a", "b", "0", "1", "x1", "?"]
# the small valid values twice, so that many cases get past argparse
_NUMBER = st.sampled_from(
    ["1", "2", "3", "4", "1", "2", "3", "1000000", "9" * 30, "0", "-1", "1.5", "x"]
)
_GARBAGE = st.text(max_size=6)
_POINT = st.one_of(
    st.sampled_from(_NAMES),
    st.lists(st.sampled_from(_NAMES + [""]), max_size=5).map(
        lambda coords: "(" + ",".join(coords) + ")"
    ),
    st.sampled_from(["()", "(e,", "e,f)", "((e))", "( e , f )", "(e;f)"]),
    _GARBAGE,
)
_EQUATION = st.one_of(
    st.lists(
        st.sampled_from(
            _NAMES + ["x2", "x0", "x99999", "=", "=", "(", ")", "^", "^-1", "^99999999",
                      "*", " ", "'"]
        ),
        max_size=8,
    ).map("".join),
    _GARBAGE,
)
_TABLE_TEXT = st.one_of(
    st.lists(
        st.sampled_from(
            ["elements e f", "elements a b", "elements a a", "elements", "\ufeffelements e f",
             "row e: e f", "row f: f f", "row a: a b", "row b: b a", "row a: a",
             "row c: a b", "row e: e f g", "row:", "# comment", "", "e f"]
        ),
        max_size=4,
    ).flatmap(lambda lines: st.sampled_from(["\n", "\r\n"]).map(lambda nl: nl.join(lines))),
    st.just("elements e f\nrow e: e f\nrow f: f f\n"),
    st.just("elements 1 a\nrow 1: 1 a\nrow a: a 1\n"),
    st.text(max_size=20),
    st.binary(max_size=20),
)
_SOURCE = st.sampled_from([
    ("TABLE",), ("TABLE",), ("TABLE",), ("--catalog", "trivial"), ("--catalog", "chain2"),
    ("--catalog", "z2"), ("--catalog", "z2_zero"),
    (), ("--catalog", "nosuch"), ("--catalog", "TABLE"), ("--catalog", "chain2", "TABLE"),
    ("MISSING",),
])
_ARITY = st.tuples(st.just("--arity"), _NUMBER)
_MAX_CELLS = st.tuples(st.just("--max-cells"), _NUMBER)
_EQ = st.tuples(st.just("--eq"), _EQUATION)
_STRAY = st.one_of(
    st.sampled_from([("--no-header",), ("--rosenblatt",), ("--dot", "DOT"), ("--bogus",),
                     ("-",), ("--",), ("--arity",), ("--eq",)]),
    _ARITY, _MAX_CELLS, _EQ, st.tuples(_POINT),
)
# each subcommand's own options, and now and then one that is not
_OPTIONS = {
    "info": st.nothing(),
    "hasse": st.sampled_from([("--dot", "DOT"), ("--dot", "")]),
    "embed": st.nothing(),
    "solve": st.one_of(_ARITY, _EQ, _EQ),
    "closure": st.one_of(_ARITY, _MAX_CELLS, st.tuples(_POINT), st.tuples(_POINT)),
    "is-algebraic": st.one_of(_ARITY, _MAX_CELLS, st.tuples(_POINT), st.tuples(_POINT)),
    "verify": st.one_of(_MAX_CELLS, st.just(("--rosenblatt",))),
    "nosuch": st.nothing(),
}
_ARGV = st.sampled_from(sorted(_OPTIONS)).flatmap(
    lambda command: st.tuples(
        st.just(command),
        _SOURCE,
        st.lists(st.one_of(_OPTIONS[command], st.just(("--no-header",))), max_size=4),
        st.sampled_from([0, 0, 1]).flatmap(lambda k: st.lists(_STRAY, min_size=k, max_size=k)),
    )
).flatmap(
    lambda parts: st.permutations([parts[1], *parts[2], *parts[3]]).map(
        lambda segments: [parts[0], *(a for segment in segments for a in segment)]
    )
)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(_ARGV, _TABLE_TEXT)
def test_hostile_input_exits_zero_to_three(tmp_path_factory, argv, table):
    # every failure is an exit status, never a traceback: argparse's usage
    # errors exit 2 through SystemExit, everything else returns 0-3
    folder = tmp_path_factory.mktemp("fuzz")
    table_path = folder / "table.txt"
    if isinstance(table, bytes):
        table_path.write_bytes(table)
    else:
        table_path.write_text(table, encoding="utf-8", errors="surrogatepass")
    paths = {"TABLE": table_path, "MISSING": folder / "missing.txt", "DOT": folder / "order.dot"}
    argv = [str(paths.get(a, a)) for a in argv]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2, 3), argv
