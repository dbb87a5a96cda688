import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import proxgml
from proxgml.cli import (
    EXIT_IO,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    EXIT_USAGE,
    main,
    parse_source,
    write_field_csv,
)
from proxgml.oracle import newton_solve
from proxgml.problem import FieldSolution, LineGrid, source_values
from proxgml.proximal import proximal_iterate, residual_field
from proxgml.symalg import from_json_dict

from conftest import UNIT_SQUARE, square_problem
from test_acceptance import CONST, REFERENCE_CONSTANTS


def read_field_csv(path, grid):
    """Reload a field written by write_field_csv onto the same grid."""
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    return FieldSolution(data[:, 2].reshape(grid.n_lines + 1, grid.m_nodes + 1))


def test_parse_source_const():
    f = parse_source("const:2.5")
    np.testing.assert_allclose(f(0.3, np.array([0.0, 1.0])), [2.5, 2.5])


def test_parse_source_expression():
    f = parse_source("sin(pi*x)*cos(y) + exp(-y)/2")
    x, y = 0.25, 0.5
    expected = np.sin(np.pi * x) * np.cos(y) + np.exp(-y) / 2
    assert f(x, y) == pytest.approx(expected)


def test_parse_source_rejects_unsafe():
    with pytest.raises(ValueError):
        parse_source("__import__('os').system('true')")
    with pytest.raises(ValueError):
        parse_source("z + 1")
    with pytest.raises(ValueError):
        parse_source("'text'")
    # a function only as the callee of a one-argument call: numpy would
    # write sin(x) into y through ``out`` for "sin(x, y)"
    for text in ("sin", "sin()", "sin(x, y)", "sin(1, 2)"):
        with pytest.raises(ValueError):
            parse_source(text)


@pytest.mark.parametrize("text", ["x.real", "y[0]", "x < y", "lambda: x", "[x]", "(x, y)",
                                  "x if y else 1", "x and y", "f'{x}'", "sin(x, out=y)"])
def test_parse_source_rejects_every_other_element(text):
    # default deny: sin(x, out=y) would have numpy write into the grid's ordinates
    with pytest.raises(ValueError, match="unsupported element in source expression"):
        parse_source(text)


def test_parse_source_constants_are_floats():
    assert type(parse_source("3**50")(0.0, 0.0)) is float


def test_const_prefix_is_an_expression():
    spec = square_problem(0.1, source=parse_source("const: 2 "))
    grid = LineGrid(UNIT_SQUARE, 6, 5)
    expected = source_values(square_problem(0.1, source=parse_source("2")), grid)
    assert np.array_equal(source_values(spec, grid), expected)
    one = parse_source("const:1")(0.5, np.zeros(3))  # source_values broadcasts it
    assert type(one) is float and one == 1.0
    for text in ("const:nan", "const:inf"):
        with pytest.raises(ValueError, match="is not x, y, pi"):
            parse_source(text)


@pytest.mark.parametrize("expr", ["2**1024", "1/0", "exp(1000)", "x/0"])
def test_overflowing_or_non_finite_source_is_rejected_where_sampled(expr, capsys):
    # the expression parses; the library judges its values when it samples them
    spec = square_problem(0.1, source=parse_source(expr))
    with pytest.raises(ValueError, match="at line 1"):
        source_values(spec, LineGrid(UNIT_SQUARE, 4, 4))
    assert main(["--mode", "cartesian", "--N", "4", "--f", expr]) == EXIT_USAGE
    assert "at line 1" in capsys.readouterr().err


def test_power_tower_source_exits_2_promptly():
    # evaluated with Python ints, 9**9**9 would build a ~370M-digit number
    src_dir = os.path.dirname(os.path.dirname(proxgml.__file__))
    env = dict(os.environ, PYTHONPATH=src_dir)
    proc = subprocess.run(
        [sys.executable, "-m", "proxgml.cli", "--mode", "cartesian", "--N", "6",
         "--f", "9**9**9"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == EXIT_USAGE, proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("terms", [1000, 5000])
def test_deeply_nested_source_is_rejected(terms, capsys):
    # 1,000 terms exhaust the recursion limit in compile, 5,000 already in ast.parse
    expr = "x+" * terms + "1"
    with pytest.raises(ValueError, match="nested too deeply"):
        parse_source(expr)
    assert main(["--mode", "cartesian", "--N", "4", "--f", expr]) == EXIT_USAGE
    assert "nested too deeply" in capsys.readouterr().err


def test_cartesian_mode_and_csv_round_trip(tmp_path, capsys):
    out = tmp_path / "field.csv"
    rc = main(["--mode", "cartesian", "--eps", "0.1", "--K", "50", "--N", "12",
               "--M", "12", "--f", "const:1", "--out-field", str(out)])
    assert rc == EXIT_OK
    assert "center=" in capsys.readouterr().out

    spec = square_problem(0.1)
    grid = LineGrid(UNIT_SQUARE, 12, 12)
    reference = proximal_iterate(spec, grid, tol=1e-8)
    reloaded = read_field_csv(str(out), grid)
    np.testing.assert_array_equal(reloaded.values, reference.solution.values)
    np.testing.assert_array_equal(residual_field(spec, grid, reloaded),
                                  residual_field(spec, grid, reference.solution))


def test_oracle_mode_csv_round_trip(tmp_path, capsys):
    out = tmp_path / "newton.csv"
    assert main(["--mode", "oracle", "--N", "8", "--out-field", str(out)]) == EXIT_OK
    assert capsys.readouterr().out.startswith("oracle: ")
    assert len(out.read_text().splitlines()) == 1 + 81

    grid = LineGrid(UNIT_SQUARE, 8, 8)
    reloaded = read_field_csv(str(out), grid).values
    np.testing.assert_array_equal(reloaded, newton_solve(square_problem(0.1), grid).solution.values)
    for edge in (reloaded[0], reloaded[-1], reloaded[:, 0], reloaded[:, -1]):
        assert np.array_equal(edge, np.zeros_like(edge))


def test_write_read_full_precision(tmp_path):
    grid = LineGrid(UNIT_SQUARE, 5, 5)
    rng = np.random.default_rng(12)
    vals = rng.normal(size=(6, 6))
    path = tmp_path / "f.csv"
    write_field_csv(str(path), grid, FieldSolution(vals))
    back = read_field_csv(str(path), grid)
    np.testing.assert_array_equal(back.values, vals)


def test_field_csv_bytes(tmp_path):
    # a header, then one row per node, line by line, at 17 significant digits
    grid = LineGrid(UNIT_SQUARE, 2, 2)
    vals = np.zeros((3, 3))
    vals[1] = [-0.0, 1 / 3, 1e-300]
    vals[2, 1] = -2.5
    path = tmp_path / "f.csv"
    write_field_csv(str(path), grid, FieldSolution(vals))
    assert path.read_bytes() == (
        b"x,y,u\n"
        b"0,0,0\n0,0.5,0\n0,1,0\n"
        b"0.5,0,-0\n0.5,0.5,0.33333333333333331\n0.5,1,1e-300\n"
        b"1,0,0\n1,0.5,-2.5\n1,1,0\n"
    )


def test_polar_symbolic_mode(tmp_path, capsys):
    out = tmp_path / "lines.json"
    rc = main(["--mode", "polar-symbolic", "--eps", "0.1", "--K", "50",
               "--N", "20", "--iters", "30", "--out-expr", str(out)])
    assert rc == EXIT_OK
    payload = json.loads(out.read_text())
    assert (payload["prox_weight"], payload["iters"]) == (50.0, 30)
    assert len(payload["lines"]) == 19
    entry = payload["lines"][0]
    assert entry["line"] == 1
    assert "terms" in entry and "text" in entry
    exps = [tuple(t["exp"]) for t in entry["terms"]]
    assert exps == sorted(exps)


@pytest.mark.parametrize("eps, fixture", [("0.1", "symbolic_lines_eps01"),
                                          ("0.01", "symbolic_lines_eps001")])
def test_polar_symbolic_defaults_run_the_reference_schedule(tmp_path, capsys, request, eps,
                                                            fixture):
    # the command-line run once used the rectangle's K = 50 and missed the
    # reference constants by up to 4.3e-2
    out = tmp_path / "lines.json"
    assert main(["--mode", "polar-symbolic", "--eps", eps, "--out-expr", str(out)]) == EXIT_OK
    payload = json.loads(out.read_text())
    assert (payload["prox_weight"], payload["iters"]) == (10.0, 149)
    _, lines = request.getfixturevalue(fixture)
    exported = {entry["line"]: from_json_dict(entry) for entry in payload["lines"]}
    assert all(exported[n] == lines[n] for n in exported)
    for n, target in REFERENCE_CONSTANTS[float(eps)].items():
        assert abs(exported[n].coefficient(CONST) - target) <= 2e-3, (n, target)


def test_polar_symbolic_prints_the_stop_and_last_update(capsys):
    assert main(["--mode", "polar-symbolic", "--eps", "0.1"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "iters=149 stop=fixed_iters" in out
    assert float(out.split("update=")[1].split()[0]) <= 1e-13


def test_polar_symbolic_non_finite_exits_3_without_export(tmp_path, capsys):
    out = tmp_path / "lines.json"
    rc = main(["--mode", "polar-symbolic", "--N", "10", "--iters", "20", "--eps", "1e-4",
               "--K", "0", "--out-expr", str(out)])
    assert rc == EXIT_NO_CONVERGENCE
    assert "stop=non-finite" in capsys.readouterr().out
    assert not out.exists()


def test_oracle_mode(tmp_path, capsys):
    rc = main(["--mode", "oracle", "--eps", "0.1", "--N", "10", "--M", "10"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "oracle:" in out
    assert "coarse_iterations=0 " in out


def test_oracle_mode_prints_coarse_iterations(capsys):
    # N = M = 32 is solved on 16 lines first
    rc = main(["--mode", "oracle", "--eps", "0.01", "--N", "32"])
    assert rc == EXIT_OK
    coarse = int(capsys.readouterr().out.split("coarse_iterations=")[1].split()[0])
    assert coarse > 0


def _strict_json(text):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=reject)


def test_compare_mode_writes_report(tmp_path):
    out = tmp_path / "report.json"
    rc = main(["--mode", "compare", "--eps", "0.1", "--N", "10", "--M", "10",
               "--out-report", str(out)])
    assert rc == EXIT_OK
    report = _strict_json(out.read_text())
    assert report["gml_converged"] is True
    assert report["sup_diff"] >= 0.0
    assert report["newton_residual_sup"] <= 1e-10
    assert report["newton_coarse_iterations"] == 0


def test_compare_report_counts_coarse_newton_steps(tmp_path):
    out = tmp_path / "report.json"
    rc = main(["--mode", "compare", "--N", "32", "--out-report", str(out)])
    assert rc == EXIT_OK
    report = _strict_json(out.read_text())
    assert report["newton_coarse_iterations"] > 0
    assert report["sup_diff"] <= 1e-5


def test_source_singular_on_the_boundary_is_a_valid_flag(tmp_path):
    # 1/y is infinite on y = 0, where the FD system never reads f
    out = tmp_path / "report.json"
    rc = main(["--mode", "compare", "--N", "16", "--f", "1/y", "--out-report", str(out)])
    assert rc == EXIT_OK
    report = _strict_json(out.read_text())
    assert report["gml_stop_reason"] == "converged"
    assert report["sup_diff"] <= 1e-6


@pytest.mark.parametrize("mode", ["cartesian", "oracle", "compare"])
@pytest.mark.parametrize("source, grid", [("1/(x-0.5)", ["--N", "8"]),
                                          ("1/(y-0.5)", ["--N", "6", "--M", "8"])])
def test_source_singular_at_an_interior_node_exits_2(capsys, mode, source, grid):
    # line 4 of N = 8 lies on x = 0.5, node 4 of M = 8 on y = 0.5; the
    # message names the line, the first bad node on it and its x and y
    assert main(["--mode", mode, *grid, "--f", source]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "source is not finite at" in err
    assert ("x=0.5, y=0.125" if "x" in source else "y=0.5") in err


@pytest.mark.parametrize("mode", ["cartesian", "compare", "oracle"])
def test_rectangle_modes_take_their_defaults_from_the_library(mode, capsys):
    # without --K, --tol and --max-iter a run is the run with the values
    # that ProblemSpec and the solver hold
    base = ["--mode", mode, "--eps", "0.1", "--N", "8"]
    explicit = ["--tol", "1e-8"] + ([] if mode == "oracle" else
                                    ["--K", "50", "--max-iter", "5000"])
    printed = []
    for argv in (base, base + explicit):
        assert main(argv) == EXIT_OK
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1]
    assert printed[0].startswith(f"{mode}: ")


def test_compare_mode_oracle_honours_tol(tmp_path):
    # the oracle in compare mode stops at --tol, as in oracle mode, so its
    # own residual does not set sup_diff
    out = tmp_path / "report.json"
    rc = main(["--mode", "compare", "--N", "6", "--tol", "1e-12", "--out-report", str(out)])
    assert rc == EXIT_OK
    assert json.loads(out.read_text())["newton_residual_sup"] <= 1e-12


def test_oracle_mode_rejects_a_tolerance_that_is_not_finite(capsys):
    # the oracle caps --tol at 1e-10, but checks the given value first, as
    # the line solve does
    assert main(["--mode", "oracle", "--N", "8", "--tol", "inf"]) == EXIT_USAGE
    assert "tol" in capsys.readouterr().err


def test_compare_report_is_strict_json_on_non_finite_stop(tmp_path):
    # f = 300 drives the line solve to a non-finite update; the report's
    # NaN numbers are written as null, not as the bare NaN that JSON lacks
    out = tmp_path / "report.json"
    rc = main(["--mode", "compare", "--N", "6", "--f", "300", "--out-report", str(out)])
    assert rc == EXIT_NO_CONVERGENCE
    report = _strict_json(out.read_text())
    assert report["gml_stop_reason"] == "non-finite"
    assert report["sup_diff"] is None and report["l2_diff"] is None
    assert report["gml_residual_sup"] is None
    assert 0.0 <= report["newton_residual_sup"] <= 1e-10 * 300


def test_invalid_flags_exit_2():
    assert main(["--mode", "bogus"]) == EXIT_USAGE
    assert main(["--mode", "cartesian", "--eps", "-1"]) == EXIT_USAGE
    assert main(["--mode", "cartesian", "--f", "nope("]) == EXIT_USAGE
    assert main(["--mode", "cartesian", "--N", "6", "--f", "exp(1000)"]) == EXIT_USAGE
    for mode in ("cartesian", "oracle", "compare"):
        for source in ("(-1)**0.5", "const:nan", "const:inf", "const:1e400"):
            assert main(["--mode", mode, "--N", "6", "--f", source]) == EXIT_USAGE
    for mode in ("cartesian", "compare"):
        assert main(["--mode", mode, "--N", "6", "--iters", "0"]) == EXIT_USAGE


@pytest.mark.parametrize("argv, flag", [
    (["--mode", "compare", "--N", "4", "--out-field", "u.csv"], "--out-field"),
    (["--mode", "cartesian", "--N", "4", "--out-report", "r.json"], "--out-report"),
    (["--mode", "oracle", "--N", "4", "--out-expr", "e.json"], "--out-expr"),
    (["--mode", "polar-symbolic", "--N", "4", "--iters", "3", "--out-field", "u.csv"],
     "--out-field"),
], ids=["compare", "cartesian", "oracle", "polar-symbolic"])
def test_output_flag_the_mode_does_not_write_exits_2(tmp_path, monkeypatch, capsys, argv, flag):
    # each of these once exited 0 and wrote no file
    monkeypatch.chdir(tmp_path)
    assert main(argv) == EXIT_USAGE
    assert f"{flag} is not written by --mode {argv[1]}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("mode, flag, value", [
    ("cartesian", "--iters", "3"),
    ("compare", "--iters", "3"),
    ("oracle", "--iters", "0"),
    ("oracle", "--max-iter", "-5"),
    ("oracle", "--K", "50"),
    ("polar-symbolic", "--f", "x*y"),
    ("polar-symbolic", "--M", "3"),
    ("polar-symbolic", "--tol", "-1"),
    ("polar-symbolic", "--max-iter", "5000"),
])
def test_flag_the_mode_does_not_read_exits_2(capsys, mode, flag, value):
    # each of these once exited 0, the flag ignored, also with a value no solver accepts
    assert main(["--mode", mode, "--N", "4", flag, value]) == EXIT_USAGE
    assert f"{flag} is not read by --mode {mode}" in capsys.readouterr().err


def test_non_convergence_exit_3():
    rc = main(["--mode", "cartesian", "--eps", "0.1", "--N", "10", "--M", "10",
               "--tol", "1e-14", "--max-iter", "2"])
    assert rc == EXIT_NO_CONVERGENCE


@pytest.mark.parametrize("extra", [[], ["--max-iter", "50"]])
def test_non_finite_update_exits_3_at_once(capsys, extra):
    rc = main(["--mode", "cartesian", "--N", "6", "--f", "3**50"] + extra)
    assert rc == EXIT_NO_CONVERGENCE
    out = capsys.readouterr().out
    assert "stop=non-finite" in out
    iterations = int(out.split("iterations=")[1].split()[0])
    assert iterations <= 2


@pytest.mark.parametrize("argv, stop, written", [
    (["--f", "3**50"], "non-finite", False),
    (["--tol", "1e-14", "--max-iter", "2"], "max_iter", True),
], ids=["non-finite", "max_iter"])
def test_cartesian_field_is_written_unless_non_finite(tmp_path, capsys, argv, stop, written):
    # the non-finite stop once wrote 49 rows, 10 of them nan; a capped run's field is finite
    out = tmp_path / "u.csv"
    rc = main(["--mode", "cartesian", "--N", "6", "--out-field", str(out)] + argv)
    assert rc == EXIT_NO_CONVERGENCE
    assert f"stop={stop}" in capsys.readouterr().out
    assert out.exists() == written
    if written:
        grid = LineGrid(UNIT_SQUARE, 6, 6)
        assert np.all(np.isfinite(read_field_csv(str(out), grid).values))


def test_diverged_center_is_printed_short(capsys):
    # the non-finite stop leaves a center of about 1.7e192
    main(["--mode", "cartesian", "--N", "6", "--f", "3**50"])
    center = capsys.readouterr().out.split("center=")[1].split()[0]
    assert len(center) <= 12, center


def test_io_error_exit_4(tmp_path):
    rc = main(["--mode", "cartesian", "--eps", "0.1", "--N", "8", "--M", "8",
               "--out-field", str(tmp_path / "no" / "such" / "dir" / "f.csv")])
    assert rc == EXIT_IO


_FUZZ_NUMBERS = ["0", "-1", "1e-300", "1e308", "nan", "inf", "-inf", "0.5"]
# weighted towards 0.5 so that about a tenth of the examples reach a solver
_FUZZ_NUMBER = st.one_of(st.just("0.5"), st.sampled_from(_FUZZ_NUMBERS))
# the flags beyond --mode, --N, --eps, --alpha and --beta that each mode reads
_FUZZ_FLAGS = {
    "cartesian": {"K", "M", "f", "tol", "max-iter"},
    "polar-symbolic": {"K", "iters"},
    "oracle": {"M", "f", "tol"},
    "compare": {"K", "M", "f", "tol", "max-iter"},
}
_FUZZ_SOURCES = ["const:1", "const:-2", "const:nan", "(-1)**0.5", "1/(x-0.5)",
                 "exp(50*x)", "x - 0.5", "sin(pi*x)*sin(pi*y)", "3**50", "y**0.5", "nope(",
                 "sin", "sin(x, y)"]


@settings(max_examples=300, deadline=None)
@given(
    mode=st.sampled_from(["cartesian", "polar-symbolic", "oracle", "compare"]),
    n=st.integers(2, 6),
    m=st.integers(2, 6),
    max_iter=st.integers(-2, 30),
    iters=st.one_of(st.none(), st.integers(-1, 10)),
    numbers=st.fixed_dictionaries(
        {k: _FUZZ_NUMBER for k in ("eps", "alpha", "beta", "K", "tol")}
    ),
    source=st.sampled_from(_FUZZ_SOURCES),
)
def test_fuzzed_flags_exit_with_documented_codes(mode, n, m, max_iter, iters, numbers, source):
    # sizes stay tiny so every example runs in milliseconds; only the flags
    # the mode reads are passed, since any other one exits 2 before a solve
    drawn = {"M": m, "max-iter": max_iter, "f": source, "iters": iters, **numbers}
    argv = [f"--mode={mode}", f"--N={n}"] + [
        f"--{k}={v}" for k, v in drawn.items()
        if v is not None and (k in ("eps", "alpha", "beta") or k in _FUZZ_FLAGS[mode])]
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore")  # e.g. a singular Jacobian at alpha = beta = 0
        rc = main(argv)
    assert rc in (EXIT_OK, EXIT_USAGE, EXIT_NO_CONVERGENCE, EXIT_IO)
