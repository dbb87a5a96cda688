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
    read_field_csv,
    write_field_csv,
)
from proxgml.problem import build_cartesian_grid
from proxgml.proximal import proximal_iterate, residual_norm

from conftest import UNIT_SQUARE, square_problem


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


def test_parse_source_constants_are_floats():
    assert type(parse_source("3**50")(0.0, 0.0)) is float


@pytest.mark.parametrize("expr", ["2**1024", "1/0", "exp(1000)", "x/0"])
def test_parse_source_rejects_overflow_and_non_finite(expr):
    f = parse_source(expr)
    with pytest.raises(ValueError):
        f(0.0, np.linspace(0.0, 1.0, 5))


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


def test_cartesian_mode_and_csv_round_trip(tmp_path, capsys):
    out = tmp_path / "field.csv"
    rc = main(["--mode", "cartesian", "--eps", "0.1", "--K", "50", "--N", "12",
               "--M", "12", "--f", "const:1", "--out-field", str(out)])
    assert rc == EXIT_OK
    assert "center=" in capsys.readouterr().out

    spec = square_problem(0.1)
    grid = build_cartesian_grid(UNIT_SQUARE, 12, 12)
    reference = proximal_iterate(spec, grid, tol=1e-8)
    reloaded = read_field_csv(str(out), grid)
    np.testing.assert_array_equal(reloaded.values, reference.solution.values)
    assert abs(residual_norm(spec, grid, reloaded)
               - residual_norm(spec, grid, reference.solution)) <= 1e-12


def test_write_read_full_precision(tmp_path):
    grid = build_cartesian_grid(UNIT_SQUARE, 5, 5)
    rng = np.random.default_rng(12)
    from proxgml.problem import FieldSolution
    vals = rng.normal(size=(6, 6))
    path = tmp_path / "f.csv"
    write_field_csv(str(path), grid, FieldSolution(vals))
    back = read_field_csv(str(path), grid)
    np.testing.assert_array_equal(back.values, vals)


def test_polar_symbolic_mode(tmp_path, capsys):
    out = tmp_path / "lines.json"
    rc = main(["--mode", "polar-symbolic", "--eps", "0.1", "--K", "10",
               "--N", "20", "--iters", "30", "--out-expr", str(out)])
    assert rc == EXIT_OK
    payload = json.loads(out.read_text())
    assert len(payload["lines"]) == 19
    entry = payload["lines"][0]
    assert entry["line"] == 1
    assert "terms" in entry and "text" in entry
    exps = [tuple(t["exp"]) for t in entry["terms"]]
    assert exps == sorted(exps)


def test_oracle_mode(tmp_path, capsys):
    rc = main(["--mode", "oracle", "--eps", "0.1", "--N", "10", "--M", "10"])
    assert rc == EXIT_OK
    assert "oracle:" in capsys.readouterr().out


def test_compare_mode_writes_report(tmp_path):
    out = tmp_path / "report.json"
    rc = main(["--mode", "compare", "--eps", "0.1", "--N", "10", "--M", "10",
               "--out-report", str(out)])
    assert rc == EXIT_OK
    report = json.loads(out.read_text())
    assert report["gml_converged"] is True
    assert report["sup_diff"] >= 0.0
    assert report["newton_residual_sup"] <= 1e-10


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


def test_non_convergence_exit_3():
    rc = main(["--mode", "cartesian", "--eps", "0.1", "--N", "10", "--M", "10",
               "--tol", "1e-14", "--max-iter", "2"])
    assert rc == EXIT_NO_CONVERGENCE


@pytest.mark.parametrize("extra", [[], ["--iters", "50"]])
def test_non_finite_update_exits_3_at_once(capsys, extra):
    rc = main(["--mode", "cartesian", "--N", "6", "--f", "3**50"] + extra)
    assert rc == EXIT_NO_CONVERGENCE
    out = capsys.readouterr().out
    assert "stop=non-finite" in out
    iterations = int(out.split("iterations=")[1].split()[0])
    assert iterations <= 2


def test_diverged_center_is_printed_short(capsys):
    # the non-finite stop leaves a center of about 1.7e192
    main(["--mode", "cartesian", "--N", "6", "--f", "3**50"])
    center = capsys.readouterr().out.split("center=")[1].split()[0]
    assert len(center) <= 12, center


def test_io_error_exit_4(tmp_path):
    rc = main(["--mode", "cartesian", "--eps", "0.1", "--N", "8", "--M", "8",
               "--out-field", str(tmp_path / "no" / "such" / "dir" / "f.csv")])
    assert rc == EXIT_IO


def test_fixed_iters_override_exits_ok():
    rc = main(["--mode", "cartesian", "--eps", "0.1", "--N", "10", "--M", "10",
               "--iters", "3"])
    assert rc == EXIT_OK


_FUZZ_NUMBERS = ["0", "-1", "1e-300", "1e308", "nan", "inf", "-inf", "0.5"]
# weighted towards 0.5 so that about a tenth of the examples reach a solver
_FUZZ_NUMBER = st.one_of(st.just("0.5"), st.sampled_from(_FUZZ_NUMBERS))
_FUZZ_SOURCES = ["const:1", "const:-2", "const:nan", "(-1)**0.5", "1/(x-0.5)",
                 "exp(50*x)", "x - 0.5", "sin(pi*x)*sin(pi*y)", "3**50", "y**0.5", "nope("]


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
    # sizes stay tiny so every example runs in milliseconds
    argv = [f"--mode={mode}", f"--N={n}", f"--M={m}", f"--max-iter={max_iter}",
            f"--f={source}"] + [f"--{k}={v}" for k, v in numbers.items()]
    if iters is not None:
        argv.append(f"--iters={iters}")
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore")  # e.g. a singular Jacobian at alpha = beta = 0
        rc = main(argv)
    assert rc in (EXIT_OK, EXIT_USAGE, EXIT_NO_CONVERGENCE, EXIT_IO)
