"""Tests for the command-line interface: outputs, exit codes, determinism."""

from __future__ import annotations

import argparse
import ast
import importlib
import inspect
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

from quasimap.cli import CommandResult, main
from quasimap.exact import FactoredRat, LinForm, MPoly
from quasimap.residues import residue_at_point


def from_json_text(text):
    """The :class:`CommandResult` whose ``to_json_text()`` is ``text``."""
    doc = json.loads(text)
    values = [(label, value) for label, value in doc["values"]]
    return CommandResult(doc["command"], doc["parameters"], values, doc["status"])


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def test_intersect_known_value():
    code, text = run_cli(["intersect", "--degree", "1", "--a", "1", "--b", "0"])
    assert code == 0
    assert "1488" in text
    assert "status: ok" in text


def test_intersect_negative_exponent():
    code, text = run_cli(["intersect", "--degree", "1", "--a", "2", "--b", "-1"])
    assert code == 0
    assert "240" in text


def test_intersect_degree_zero_result():
    code, text = run_cli(["intersect", "--degree", "1", "--a", "0", "--b", "0"])
    assert code == 0
    assert "w  0" in text


def test_intersect_degree_above_documented_maximum_is_usage_error():
    from quasimap.cli import DEGREE_OPTION_MAX

    assert DEGREE_OPTION_MAX == 100
    argv = ["intersect", "--degree", "101", "--a", "1", "--b", "0"]
    code, text = run_cli(argv)
    assert code == 2
    assert "usage_error" in text and "degree must be <= 100" in text
    code, doc = run_cli([*argv, "--format", "json"])
    assert code == 2
    result = from_json_text(doc)
    assert result.status == "usage_error"
    assert result.values == [("error", "degree must be <= 100")]


@pytest.mark.parametrize("command", ["fan", "chow"])
def test_fan_and_chow_degree_above_documented_maximum_is_usage_error(command):
    argv = [command, "--degree", "101"]
    code, text = run_cli(argv)
    assert code == 2
    assert "usage_error" in text and "degree must be <= 100" in text
    code, doc = run_cli([*argv, "--format", "json"])
    assert code == 2
    result = from_json_text(doc)
    assert result.status == "usage_error"
    assert result.values == [("error", "degree must be <= 100")]
    assert run_cli([command, "--degree", "100"])[0] == 0


def test_fan_counts_and_usage_error():
    code, text = run_cli(["fan", "--degree", "2"])
    assert code == 0
    assert "ray_count" in text and "17" in text
    assert "max_cones" in text and "175" in text
    code, text = run_cli(["fan", "--degree", "0"])
    assert code == 2
    assert "usage_error" in text


def test_chow_generators():
    code, text = run_cli(["chow", "--degree", "2"])
    assert code == 0
    assert "generator 0 factors" in text
    assert "(H0 - 2*H1 + H2)" in text or "(-H0 + 2*H1 - H2)" in text or "- 2*H1" in text
    code, _ = run_cli(["chow", "--degree", "0"])
    assert code == 2


def test_mirror_and_jinv_tables():
    code, text = run_cli(["mirror", "--order", "2"])
    assert code == 0
    assert "744" in text and "473652" in text
    code, text = run_cli(["jinv", "--order", "2"])
    assert code == 0
    assert "196884" in text
    assert "routes_agree" in text and "true" in text
    code, text = run_cli(["jinv", "--order", "1"])
    assert code == 0
    assert "j_1" in text


def test_jinv_order_24_routes_agree():
    code, text = run_cli(["jinv", "--order", "24"])
    assert code == 0
    assert "routes_agree  true" in text


def test_order_above_documented_maximum_is_usage_error():
    from quasimap.cli import ORDER_MAX

    for command in ("jinv", "mirror"):
        code, text = run_cli([command, "--order", str(ORDER_MAX + 1)])
        assert code == 2
        assert "usage_error" in text and f"order must be <= {ORDER_MAX}" in text
        code, text = run_cli([command, "--order", "0"])
        assert code == 2
        assert "usage_error" in text and "order must be >= 1" in text


def test_text_and_json_carry_the_same_values():
    for argv in (["jinv", "--order", "6"], ["mirror", "--order", "6"]):
        _, text = run_cli(argv)
        _, doc = run_cli([*argv, "--format", "json"])
        result = from_json_text(doc)
        lines = text.splitlines()
        assert lines[0] == f"command: {result.command}"
        assert lines[1] == f"order = {result.parameters['order']}"
        assert [tuple(line.split()) for line in lines[2:-1]] == result.values
        assert lines[-1] == f"status: {result.status}"


@pytest.mark.parametrize("argv", [
    ["fan", "--degree", "2"],
    ["chow", "--degree", "2"],
    ["intersect", "--degree", "3", "--a", "2", "--b", "-1"],
])
def test_text_lines_are_the_json_values(argv):
    # Each text value line is the label padded to the widest label, two
    # spaces, then the value, in the order of the JSON values.
    _, text = run_cli(argv)
    _, doc = run_cli([*argv, "--format", "json"])
    result = from_json_text(doc)
    assert result.status == "ok" and result.values
    width = max(len(label) for label, _ in result.values)
    expected = [f"command: {result.command}"]
    expected += [f"{key} = {result.parameters[key]}" for key in sorted(result.parameters)]
    expected += [label.ljust(width) + "  " + value for label, value in result.values]
    expected.append(f"status: {result.status}")
    assert text.splitlines() == expected


def test_verify_text_lines_are_the_json_values():
    # The text line "PASS name: expected E, actual A" is the JSON value
    # "PASS expected=E actual=A" of the same check, in the same order.
    code, text = run_cli(["verify", "--degree-max", "1"])
    json_code, doc = run_cli(["verify", "--degree-max", "1", "--format", "json"])
    assert code == json_code == 0
    result = from_json_text(doc)
    *checks, summary = result.values
    lines = text.splitlines()
    assert len(lines) == len(checks) + 2
    for line, (name, value) in zip(lines, checks):
        verdict, rest = value.split(" ", 1)
        assert verdict in ("PASS", "FAIL") and rest.startswith("expected=")
        expected, actual = rest.removeprefix("expected=").split(" actual=", 1)
        assert line == f"{verdict} {name}: expected {expected}, actual {actual}"
    assert summary[0] == "summary" and lines[-2] == f"summary: {summary[1]}"
    assert lines[-1] == f"status: {result.status}"


def test_json_round_trip():
    code, text = run_cli(["intersect", "--degree", "1", "--a", "1", "--b", "0", "--format", "json"])
    assert code == 0
    parsed = from_json_text(text)
    assert parsed.to_json_text() == text
    doc = json.loads(text)
    assert doc["status"] == "ok"
    assert ["w", "1488"] in doc["values"]


def test_command_result_round_trip_identity():
    result = CommandResult("mirror", {"order": 3}, [("w_1", "744"), ("w_2", "473652")], "ok")
    assert from_json_text(result.to_json_text()) == result


def test_byte_determinism():
    for argv in (
        ["fan", "--degree", "2"],
        ["chow", "--degree", "1", "--format", "json"],
        ["jinv", "--order", "3", "--format", "json"],
        ["intersect", "--degree", "2", "--a", "1", "--b", "0"],
    ):
        _, first = run_cli(list(argv))
        _, second = run_cli(list(argv))
        assert first == second


def test_threads_flag_is_usage_error():
    # The residue engine is single-threaded; there is no --threads option.
    for argv in (["intersect", "--degree", "1", "--a", "1", "--b", "0"], ["verify", "--degree-max", "1"]):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--threads", "2"])
        assert exc.value.code == 2


def test_verify_degree_one_passes():
    code, text = run_cli(["verify", "--degree-max", "1"])
    assert code == 0
    assert "PASS w-coefficient d=1" in text
    assert "status: ok" in text
    assert "FAIL" not in text


def test_verify_usage_error():
    from quasimap.checks import run_verification

    code, text = run_cli(["verify", "--degree-max", "0"])
    assert code == 2
    assert "usage_error" in text
    # The ladder itself rejects it too; its upper bound is the front end's.
    with pytest.raises(ValueError, match="degree_max must be >= 1"):
        next(run_verification(0))


@pytest.mark.parametrize("argv, message", [
    (["fan", "--degree", "0"], "degree must be >= 1"),
    (["chow", "--degree", "-3"], "degree must be >= 1"),
    (["intersect", "--degree", "0", "--a", "1", "--b", "0"], "degree must be >= 1"),
    (["mirror", "--order", "0"], "order must be >= 1"),
    (["jinv", "--order", "-1"], "order must be >= 1"),
    (["verify", "--degree-max", "0"], "degree-max must be >= 1"),
    (["verify", "--degree-max", "-2"], "degree-max must be >= 1"),
])
def test_values_below_one_are_usage_errors(argv, message):
    # The exact message in both formats, with exit code 2.
    code, text = run_cli(argv)
    assert code == 2
    assert text.splitlines()[-2:] == [f"error  {message}", "status: usage_error"]
    code, doc = run_cli([*argv, "--format", "json"])
    assert code == 2
    assert from_json_text(doc).values == [("error", message)]


def test_verify_rejects_degree_above_documented_maximum():
    from quasimap.cli import DEGREE_MAX

    assert DEGREE_MAX == 60
    code, text = run_cli(["verify", "--degree-max", str(DEGREE_MAX + 1)])
    assert code == 2
    assert "usage_error" in text and f"degree-max must be <= {DEGREE_MAX}" in text


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_missing_required_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["intersect", "--degree", "1", "--a", "1"])
    assert exc.value.code == 2


def test_verify_fails_on_tampered_insertion_factors(monkeypatch):
    # Negative control: swapping the insertion-block factors for a variant
    # missing the (x + 2y) cofactor must surface at the first w-coefficient.
    import quasimap.intersection as intersection
    from quasimap.checks import check_w_coefficients
    from quasimap.exact import LinForm

    def tampered(x, y):
        return [LinForm({x: 6 - j, y: 1}) for j in range(7)]

    monkeypatch.setattr(intersection, "e6_factors", tampered)
    results = check_w_coefficients(intersection.w_sweep(1, 1, 0))
    assert not results[0].ok


def test_insertion_exponents_above_documented_maximum_are_usage_errors():
    from quasimap.cli import INSERTION_EXPONENT_MAX

    assert INSERTION_EXPONENT_MAX == 3
    code, text = run_cli(["intersect", "--degree", "5", "--a", "-2", "--b", "3"])
    assert code == 0 and "w  0" in text
    for a, b in ((-3, 4), (4, -3), (-29, 30), (1, -4)):
        argv = ["intersect", "--degree", "5", "--a", str(a), "--b", str(b)]
        code, text = run_cli(argv)
        assert code == 2
        assert "usage_error" in text and "|a| and |b| must be <= 3" in text
        code, doc = run_cli([*argv, "--format", "json"])
        assert code == 2
        result = from_json_text(doc)
        assert result.status == "usage_error"
        assert result.values == [("error", "|a| and |b| must be <= 3")]


GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
GOLDEN_STDOUT = [
    "verify --degree-max 4 --format json",
    "intersect --degree 5 --a 1 --b 0",
    "chow --degree 3",
    "chow --degree 3 --format json",
    "verify --degree-max 10",
    "fan --degree 3",
    "mirror --order 30",
    "jinv --order 30",
    "verify --degree-max 60 --format json",
    "intersect --degree 25 --a 1 --b 0",
    "intersect --degree 25 --a 2 --b -1",
    "intersect --degree 25 --a -2 --b 3",
    "mirror --order 100",
    "jinv --order 100",
    "intersect --degree 100 --a 2 --b -1",
]
GOLDEN_USAGE_ERRORS = [
    "intersect --degree 5 --a -3 --b 4",
    "verify --degree-max 61 --format json",
    "mirror --order 101",
]


def golden_name(argv):
    """The file in ``GOLDEN`` that pins the stdout of ``argv``: its words joined with ``_``."""
    return argv.replace(" ", "_") + ".txt"


@pytest.mark.parametrize("argv", GOLDEN_STDOUT)
def test_golden_stdout(argv):
    # The exact stdout: any change of value, order or format shows in the file's diff.
    code, text = run_cli(argv.split())
    assert code == 0
    assert text.encode() == (GOLDEN / golden_name(argv)).read_bytes()


@pytest.mark.parametrize("argv", GOLDEN_USAGE_ERRORS)
def test_golden_usage_errors(argv):
    # The whole usage-error output, parameters block included, byte for byte.
    code, text = run_cli(argv.split())
    assert code == 2
    assert text.encode() == (GOLDEN / golden_name(argv)).read_bytes()


def test_golden_files_are_the_pinned_cases():
    # A file left behind by a removed case, or a case without its file, fails by name.
    files = {path.name for path in GOLDEN.iterdir()}
    pinned = set(map(golden_name, GOLDEN_STDOUT + GOLDEN_USAGE_ERRORS))
    assert files <= pinned, f"no case pins {sorted(files - pinned)}"
    assert pinned <= files, f"no golden file for {sorted(pinned - files)}"


def test_every_integer_option_is_bounded():
    # Each integer option is checked by main: --a and --b by the exponent rule,
    # every other one against its BOUNDS entry, which its --help states.
    from quasimap.cli import BOUNDS, INSERTION_EXPONENT_MAX, build_parser

    parser = build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    seen = set()
    for name, sub in subparsers.choices.items():
        for action in sub._actions:
            if action.type is not int:
                continue
            seen.add(action.dest)
            if action.dest in ("a", "b"):
                assert f"<= {INSERTION_EXPONENT_MAX}" in action.help, (name, action.dest)
            else:
                assert action.dest in BOUNDS, (name, action.dest)
                assert f"1 <= {action.metavar} <= {BOUNDS[action.dest]}" in action.help, (name, action.dest)
    assert seen == set(BOUNDS) | {"a", "b"}


def test_verify_text_streams_each_line(monkeypatch):
    # Text-mode verify writes each check line as the ladder yields it: the
    # w-coefficient lines are out before the last family starts.
    from quasimap import checks

    out = io.StringIO()
    written = []
    original = checks.check_properties

    def recording():
        written.append(out.getvalue())
        return original()

    monkeypatch.setattr(checks, "check_properties", recording)
    assert main(["verify", "--degree-max", "2"], out=out) == 0
    assert len(written) == 1
    assert "PASS w-coefficient d=1: expected 744, actual 744\n" in written[0]
    assert "PASS w-coefficient d=2: " in written[0]
    assert "residue linearity" not in written[0]
    assert out.getvalue().startswith(written[0])


def test_verify_reports_a_failing_check(monkeypatch):
    # One check forced to fail: exit 1, and text and JSON carry the same status
    # and summary.  The lines are read by name, so every name is unique.
    from quasimap import checks

    names = [r.name for r in checks.run_verification(6)]
    assert len(set(names)) == len(names) == 85
    total = len(list(checks.run_verification(2)))
    summary = f"{total - 1}/{total} checks passed"
    monkeypatch.setattr(checks, "corner_determinants", lambda kmax: [0] * kmax)
    code, text = run_cli(["verify", "--degree-max", "2"])
    assert code == 1
    assert "FAIL corner determinants k<=30: expected 9k-6 for all k, actual mismatch\n" in text
    assert text.endswith(f"summary: {summary}\nstatus: verification_failed\n")
    code, doc = run_cli(["verify", "--degree-max", "2", "--format", "json"])
    assert code == 1
    result = from_json_text(doc)
    assert result.status == "verification_failed"
    assert result.values[-1] == ("summary", summary)
    assert ("corner determinants k<=30", "FAIL expected=9k-6 for all k actual=mismatch") in result.values


def test_tracer_targets_exist():
    # ``benchmarks/tracer.py`` wraps these methods by name and reads the
    # arguments of the spans in its ``INFO`` table; read both tables without
    # running the file, so a renamed method or a changed signature fails here,
    # not in a traced benchmark run.
    path = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"
    tree = ast.parse(path.read_text())

    def table(name):
        return next(node.value for node in tree.body if isinstance(node, ast.Assign)
                    and [t.id for t in node.targets if isinstance(t, ast.Name)] == [name])

    methods = ast.literal_eval(table("METHODS"))
    assert methods
    for module, cls, method, _ in methods:
        owner = getattr(importlib.import_module(f"quasimap.{module}"), cls)
        assert method in owner.__dict__, f"{cls}.{method}"
    spans = {span for *_, span in methods}
    keys = [ast.literal_eval(key) for key in table("INFO").keys]
    assert "residues.residue_at_point" in keys
    for key in keys:
        module, _, name = key.partition(".")
        target = getattr(importlib.import_module(f"quasimap.{module}"), name, None)
        assert key in spans or inspect.isfunction(target), key
    # Its span info reads ``args[1]`` of ``residue_at_point`` as the step variable.
    assert list(inspect.signature(residue_at_point).parameters)[:2] == ["f", "var"]


@pytest.mark.parametrize("argv", [
    ["fan", "--degree", "2"],
    ["chow", "--degree", "2"],
    ["intersect", "--degree", "5", "--a", "1", "--b", "0"],
    ["intersect", "--degree", "4", "--a", "-2", "--b", "3"],
    ["mirror", "--order", "5"],
    ["jinv", "--order", "15"],
    ["verify", "--degree-max", "4"],
    ["verify", "--degree-max", "4", "--format", "json"],
], ids=" ".join)
def test_cli_never_runs_the_derivative_reference(monkeypatch, argv):
    # ``FactoredRat.derivative``, ``.subst`` and ``.expand``, with the rational point
    # of ``LinForm.solve_for`` and the substitution ``MPoly.subst``, are the
    # independent reference the residue tests check ``residue_at_point`` against; an
    # engine that ran them would be compared with itself.  ``.reduce`` is the identity,
    # since the constructor cancels: nothing may call it.
    def refuse(*args, **kwargs):
        raise AssertionError("the CLI ran the derivative reference or reduce")

    for name in ("derivative", "subst", "expand", "reduce"):
        monkeypatch.setattr(FactoredRat, name, refuse)
    monkeypatch.setattr(LinForm, "solve_for", refuse)
    monkeypatch.setattr(MPoly, "subst", refuse)
    assert run_cli(argv)[0] == 0


ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}


def loaded_modules(statement):
    """The modules a fresh interpreter has loaded after running ``statement``
    (also when it exits, as ``--help`` does), less those of a bare interpreter."""
    def modules(stmt):
        code = f"import sys\ntry:\n    {stmt}\nfinally:\n    print(' '.join(sorted(sys.modules)), file=sys.stderr)"
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=SRC_ENV, check=True)
        return set(done.stderr.split())

    return modules(statement) - modules("pass")


def test_cli_import_skips_dataclasses_and_inspect():
    # Start-up time: ``dataclasses`` pulls in ``inspect``, and the CLI's record
    # types are ``NamedTuple``s, so importing it needs neither.
    added = loaded_modules("import quasimap.cli")
    assert "quasimap.cli" in added
    assert not added & {"dataclasses", "inspect"}


@pytest.mark.parametrize(
    "argv, layers",
    [
        (["--help"], set()),
        (["jinv", "--order", "3"], {"series"}),
        (["mirror", "--order", "3"], {"series"}),
        (["intersect", "--degree", "2", "--a", "1", "--b", "0"], {"exact", "residues", "toric", "intersection"}),
        (["fan", "--degree", "1"], {"exact", "toric"}),
        (["chow", "--degree", "1"], {"exact", "toric"}),
        (["jinv", "--order", "3", "--format", "json"], {"series"}),
    ],
)
def test_each_invocation_loads_only_the_layers_it_runs(argv, layers):
    # Start-up time: importing the front end loads no computational module, and
    # each handler imports only the layers it calls; only JSON output loads ``json``.
    added = loaded_modules(f"from quasimap.cli import main; main({argv!r})")
    assert {m for m in added if m.partition(".")[0] == "quasimap"} == {
        "quasimap", "quasimap.cli", *(f"quasimap.{layer}" for layer in layers)
    }
    assert ("json" in added) == ("json" in argv)


@pytest.mark.parametrize(
    "argv, span",
    [
        (["jinv", "--order", "5"], "series.mirror_w"),
        (["intersect", "--degree", "2", "--a", "1", "--b", "0"], "residues.iterated_residue"),
    ],
)
def test_tracer_sees_calls_imported_by_the_handlers(tmp_path, argv, span):
    # ``benchmarks/tracer.py`` wraps each layer's functions after importing the
    # CLI; the handlers import them when called, so they must get the wrappers.
    result = tmp_path / "trace.json"
    done = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "tracer.py"), "--src", str(ROOT / "src"),
         "--result", str(result), "--", *argv],
        capture_output=True, text=True, env=SRC_ENV, cwd=tmp_path,
    )
    assert done.returncode == 0, done.stderr
    doc = json.loads(result.read_text())
    assert (doc["exit"], doc["stdout"]) == run_cli(argv)
    assert span in {name for _, _, name, *_ in doc["spans"]}
