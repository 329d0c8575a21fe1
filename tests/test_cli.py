"""Exit codes, report determinism, and file handling of the command line tool."""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lindring
from lindring.cli import main
from lindring.pauli import PauliOperator
from lindring.generators import (
    LindbladGenerator, basis_strings, format_generator_file, parse_generator_file)
from lindring.rings import format_density_file


@pytest.fixture
def heis_gen(tmp_path):
    L = PauliOperator(2, {"XX": 1.0, "YY": 1.0, "ZZ": 1.0})
    path = tmp_path / "heis.gen"
    path.write_text(format_generator_file(LindbladGenerator(2, lindblads=[L])))
    return str(path)


@pytest.fixture
def sx_density(tmp_path):
    path = tmp_path / "sx.op"
    path.write_text(format_density_file(PauliOperator(1, {"X": 1.0})))
    return str(path)


@pytest.fixture
def ising_density(tmp_path):
    a = PauliOperator(2, {"XX": 0.61, "XI": 0.34, "IX": 0.34, "II": 0.05})
    path = tmp_path / "ising.op"
    path.write_text(format_density_file(a))
    return str(path)


@pytest.fixture
def heis_density(tmp_path):
    a = PauliOperator(2, {"XX": 1.0, "YY": 1.0, "ZZ": 1.0})
    path = tmp_path / "heis.op"
    path.write_text(format_density_file(a))
    return str(path)


def run_json(args, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, json.loads(out.read_text())


# -- exit codes ----------------------------------------------------------------


def test_unknown_subcommand_exit_64(capsys):
    assert main(["frobnicate", "--x", "1"]) == 64
    assert "unknown subcommand" in capsys.readouterr().err


def test_missing_file_exit_2(sx_density, capsys):
    assert main(["check", "--gen", "/nonexistent.gen", "--density", sx_density]) == 2
    capsys.readouterr()


def test_malformed_generator_exit_2(sx_density, capsys):
    # a density file is not a generator file
    assert main(["check", "--gen", sx_density, "--density", sx_density]) == 2
    capsys.readouterr()


def test_bad_flag_exit_2(capsys):
    assert main(["check", "--gen"]) == 2
    assert main(["obstruction", "--r", "5"]) == 2
    capsys.readouterr()


def test_cli_loads_numpy_alone():
    code = ("import sys, lindring.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(lindring.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_commands_leave_numpy_ma_unloaded(ising_density, heis_density, tmp_path):
    # numpy.ma costs every fresh process a cold import (np.unique loads it); the r=3
    # refusal sorts the most image terms of any search
    runs = [["search", "--density", ising_density, "--r", "2", "--seed", "1"],
            ["search", "--density", heis_density, "--r", "2", "--seed", "1"],
            ["search", "--density", heis_density, "--r", "3", "--seed", "1"],
            ["obstruction", "--r", "3", "--mu", "0.5", "--nu", "0.3"],
            ["scan", "--r", "2", "--family", "xx-field"]]
    code = ("import json, sys; from lindring.cli import main; "
            f"codes = [main(argv + ['--out', {str(tmp_path / 'out')!r}]) for argv in {runs!r}]; "
            "print(json.dumps([codes, 'numpy.ma' in sys.modules]))")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(lindring.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert json.loads(out.stdout) == [[0, 3, 3, 0, 0], False]


def test_help_exit_0(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_scan_without_grid_exit_2(capsys):
    assert main(["scan", "--r", "2"]) == 2
    capsys.readouterr()


def test_scan_family_and_grid_exit_2(tmp_path, capsys):
    grid = tmp_path / "grid.txt"
    grid.write_text("1 1 0 0 0\n")
    assert main(["scan", "--r", "2", "--family", "xyz", "--grid", str(grid)]) == 2
    assert "not allowed with" in capsys.readouterr().err


def test_non_psd_gamma_exit_2(tmp_path, capsys):
    gen = tmp_path / "neg.gen"
    gen.write_text("[gamma]\norder = X Y Z\n-1 0 0\n0 0 0\n0 0 0\n")
    assert main(["kernel", "--gen", str(gen)]) == 2
    assert "positive semidefinite" in capsys.readouterr().err


@pytest.mark.parametrize("entry", ["(1", "1)", "(1+2i", "1+2i)", "1+2i"])
def test_unbalanced_gamma_entry_exit_2(entry, tmp_path, capsys):
    # a [gamma] entry is a decimal or a whole (a+bi) literal
    gen = tmp_path / "bad.gen"
    gen.write_text(f"[gamma]\norder = X Y Z\n{entry} 0 0\n0 0 0\n0 0 0\n")
    assert main(["kernel", "--gen", str(gen)]) == 2
    assert "bad matrix entry" in capsys.readouterr().err


def test_large_gamma_with_rounding_exit_0(tmp_path):
    # a [gamma] file at scale 1e5 with one entry moved by one part in 1e15
    rng = np.random.default_rng(5)
    F = rng.standard_normal((15, 2))
    gamma = 1e5 * F @ F.T
    gamma = 0.5 * (gamma + gamma.T)
    i, j = np.unravel_index(np.argmax(np.abs(np.triu(gamma, 1))), gamma.shape)
    gamma[i, j] *= 1.0 + 1e-15
    assert gamma[i, j] != gamma[j, i]
    rows = "\n".join(" ".join(repr(float(v)) for v in row) for row in gamma)
    path = tmp_path / "large.gen"
    path.write_text(f"[gamma]\norder = {' '.join(basis_strings(2))}\n{rows}\n")
    code, rep = run_json(["kernel", "--gen", str(path)], tmp_path)
    assert code == 0
    assert rep["result"]["r"] == 2


def test_overflow_in_analysis_exit_2(tmp_path, capsys):
    # finite input whose analysis overflows fails closed, with no verdict
    # read off inf or nan entries
    big_jump = tmp_path / "big.gen"
    big_jump.write_text("[lindblad]\n1e200*X\n")
    big_density = tmp_path / "big.op"
    big_density.write_text("r=1\n-1e308*I\n")
    for argv in (["kernel", "--gen", str(big_jump)],
                 ["check", "--gen", str(big_jump), "--density", str(big_density)],
                 ["search", "--density", str(big_density), "--r", "1"]):
        assert main(argv + ["--out", str(tmp_path / "out.json")]) == 2
    assert "overflow encountered" in capsys.readouterr().err


def test_jump_file_reports_as_its_gamma_file(ising_density, tmp_path):
    # jump operators with identity and complex parts are read into (H, gamma):
    # the [gamma] file written for them gives the same reports, byte for byte,
    # once the file name and the configuration hash are masked
    jumps = tmp_path / "jumps.gen"
    jumps.write_text("[hamiltonian]\n0.25*ZZ + 0.5*XI\n[lindblad]\n"
                     "(0.3-0.7i)*II + XX + (0+0.5i)*YZ\n0.5*IX + 0.2*II - (0.1+0.2i)*ZY\n")
    written = tmp_path / "written.gen"
    written.write_text(format_generator_file(parse_generator_file(jumps.read_text())))
    assert "[lindblad]" not in written.read_text()
    for argv in (["kernel"], ["check", "--density", ising_density],
                 ["check", "--density", ising_density, "--mode", "local", "--n", "9"]):
        reports = []
        for gen in (jumps, written):
            out = tmp_path / "out.json"
            code = main(argv + ["--gen", str(gen), "--out", str(out)])
            text = out.read_text().replace(str(gen), "GEN")
            reports.append((code, re.sub(r'"config_hash": "[0-9a-f]+"', "", text)))
        assert reports[0] == reports[1]


def test_non_finite_coefficient_exit_2(heis_gen, sx_density, tmp_path, capsys):
    density = tmp_path / "inf.op"
    density.write_text("r=2\n1e400*ZZ + XX\n")
    overflow = tmp_path / "overflow.op"
    overflow.write_text("r=2\n1e308*XX + 1e308*XX\n")
    problem = tmp_path / "inf.prob"
    problem.write_text("r=2\n(1+1e400i)*XY\n[problem]\nr_gen = 2\n")
    assert main(["check", "--gen", heis_gen, "--density", str(density)]) == 2
    assert main(["canon", "--density", str(density)]) == 2
    assert main(["canon", "--density", str(overflow)]) == 2
    assert main(["search", "--density", str(problem)]) == 2
    for i, text in enumerate(("[hamiltonian]\n1e400*ZZ\n[lindblad]\nXX\n",
                              "[hamiltonian]\n1e308*ZZ\n1e308*ZZ\n[lindblad]\nXX\n",
                              "[lindblad]\n-1e999*XX\n",
                              "[gamma]\norder = X Y Z\n1e400 0 0\n0 0 0\n0 0 0\n")):
        gen = tmp_path / f"inf{i}.gen"
        gen.write_text(text)
        assert main(["kernel", "--gen", str(gen)]) == 2
        assert main(["check", "--gen", str(gen), "--density", sx_density]) == 2
    err = capsys.readouterr().err
    assert err.count("not finite") == 12 and "Traceback" not in err
    # non-finite point parameters are refused before any assembly
    for flag, value in (("--mu", "nan"), ("--hx", "inf"), ("--nu", "1e400")):
        assert main(["obstruction", "--r", "2", flag, value]) == 2
    err = capsys.readouterr().err
    assert err.count("is not finite") == 3 and "converge" not in err
    # finite parameters whose obstruction matrix overflows, the point named
    grid = tmp_path / "huge.grid"
    grid.write_text("0.1 0.2 0 0 0\n0 0 1e200 0 0\n")
    for argv in (["obstruction", "--r", "3", "--hx", "1e200"],
                 ["obstruction", "--r", "2", "--hx", "1e200"],
                 ["scan", "--r", "2", "--grid", str(grid)]):
        assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("not finite at (mu, nu, hx, hy, hz) = (0.0, 0.0, 1e+200, 0.0, 0.0)") == 3
    assert "Traceback" not in err and "converge" not in err


def test_overflow_in_generator_action_exit_2(tmp_path, capsys):
    # finite inputs whose ring action overflows: inf - inf leaves NaN amplitudes
    # that no residual may drop or read as a number
    gen = tmp_path / "g.gen"
    gen.write_text("[lindblad]\n1e150*X + 1e150*Y\n")
    density = tmp_path / "d.op"
    density.write_text("r=1\n1e150*Z\n")
    for mode in ("global", "local"):
        out = tmp_path / f"{mode}.json"
        argv = ["check", "--gen", str(gen), "--density", str(density), "--n", "4", "--mode", mode]
        assert main(argv + ["--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "not finite" in err and "Traceback" not in err


def test_anisotropy_out_of_range_exit_2(tmp_path, capsys):
    # the two-site normal form has mu, nu in [0, 1]; anything else is refused
    for flag, value in (("--mu", "-3"), ("--nu", "2"), ("--mu", "1e200"), ("--nu", "1.0000001")):
        assert main(["obstruction", "--r", "2", f"{flag}={value}"]) == 2
        assert f"{value!r} is outside [0, 1]" in capsys.readouterr().err
    assert main(["obstruction", "--r", "3", "--mu=-3", "--nu", "2"]) == 2
    assert "'-3' is outside [0, 1]" in capsys.readouterr().err
    for line, value in (("1.5 0 0 0 0", "1.5"), ("0.5 -0.1 0 0 0", "-0.1")):
        grid = tmp_path / "range.grid"
        grid.write_text(f"0.1 0.2 0 0 0\n{line}\n")
        assert main(["scan", "--r", "2", "--grid", str(grid)]) == 2
        err = capsys.readouterr().err
        assert "grid line 2" in err and f"{value!r} is outside [0, 1]" in err
    # the ends of the range are in range
    assert main(["obstruction", "--r", "2", "--mu", "0", "--nu", "1", "--out",
                 str(tmp_path / "edge.json")]) == 0


def test_sylvester_check_without_overflow(tmp_path):
    # the leading minors of C overflow at large fields; the cross-check reads
    # those of C / max|C| and warns of nothing
    for argv in (["--r", "2", "--mu", "0.5", "--nu", "0.5", "--hx", "1e100"],
                 ["--r", "3", "--mu", "0.5", "--nu", "0.5", "--hx", "1e100"],
                 ["--r", "2", "--mu", "1", "--nu", "1", "--hx", "1e100", "--hz", "1e100"]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, rep = run_json(["obstruction"] + argv, tmp_path)
        assert code == 0
        assert math.isfinite(rep["result"]["max_eigenvalue"])


@settings(max_examples=100, deadline=None)
@given(r=st.sampled_from([2, 3]),
       point=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=5, max_size=5))
def test_obstruction_any_finite_point(r, point):
    argv = ["obstruction", "--r", str(r)]
    # --flag=value, since argparse reads a lone -1e+200 as a flag
    argv += [f"--{name}={value!r}" for name, value in zip(("mu", "nu", "hx", "hy", "hz"), point)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert math.isfinite(json.loads(out.getvalue())["result"]["max_eigenvalue"])


@settings(max_examples=100, deadline=None)
@given(r=st.sampled_from([2, 3]),
       mu=st.floats(0.0, 1.0), nu=st.floats(0.0, 1.0),
       field=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=3, max_size=3))
def test_obstruction_any_field_in_range(r, mu, nu, field):
    # anisotropies in range reach the assembly for every finite field
    argv = ["obstruction", "--r", str(r), f"--mu={mu!r}", f"--nu={nu!r}"]
    argv += [f"--{name}={value!r}" for name, value in zip(("hx", "hy", "hz"), field)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue() and "outside" not in err.getvalue()
    if code == 0:
        assert math.isfinite(json.loads(out.getvalue())["result"]["max_eigenvalue"])


def test_bad_tolerance_exit_2(heis_gen, sx_density, ising_density, capsys):
    # tolerances must be finite and non-negative (zero stays allowed, see
    # test_check_indeterminate_exit_3); NaN is not even valid JSON
    commands = (["kernel", "--gen", heis_gen],
                ["check", "--gen", heis_gen, "--density", sx_density])
    for argv in commands:
        for value in ("nan", "inf", "-1"):
            assert main(argv + ["--tol", value]) == 2
    err = capsys.readouterr().err
    assert err.count("is not finite") == 4 and err.count("is negative") == 2
    # search has no tolerance: its one judge is the ring check at VERIFY_TOL
    assert main(["search", "--density", ising_density, "--r", "2", "--tol", "1e-9"]) == 2


# -- check ---------------------------------------------------------------------


def test_check_conserved_exit_0(heis_gen, sx_density, tmp_path):
    code, rep = run_json(
        ["check", "--gen", heis_gen, "--density", sx_density,
         "--mode", "global", "--n", "6"], tmp_path)
    assert code == 0
    assert rep["result"]["verdict"] == "conserved"
    assert rep["result"]["residual"] == 0.0
    assert rep["config"]["n"] == 6
    assert rep["tool"]["name"] == "lindring"


def test_check_violated_exit_0(heis_gen, tmp_path):
    sz2 = tmp_path / "zz.op"
    sz2.write_text(format_density_file(PauliOperator(2, {"ZI": 1.0, "XX": 0.3})))
    code, rep = run_json(
        ["check", "--gen", heis_gen, "--density", str(sz2)], tmp_path)
    # violated is a definite verdict, not an error
    assert code == 0
    assert rep["result"]["verdict"] == "violated"


def test_check_indeterminate_exit_3(heis_gen, sx_density, tmp_path):
    out = tmp_path / "r.json"
    code = main(["check", "--gen", heis_gen, "--density", sx_density,
                 "--n", "6", "--tol", "0", "--out", str(out)])
    # zero_tol 0 puts an exactly conserved density in the indeterminate band
    assert code == 3
    assert json.loads(out.read_text())["result"]["verdict"] == "indeterminate"


def test_check_ring_shorter_than_window_exit_2(heis_gen, heis_density, capsys):
    # refused as input, before any analysis runs
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for mode in ("local", "global"):
            for n in ("1", "0", "-3"):
                assert main(["check", "--gen", heis_gen, "--density", heis_density,
                             "--mode", mode, f"--n={n}"]) == 2
    assert capsys.readouterr().err.count("ring shorter than the widest window") == 6


def test_check_reports_short_ring(heis_gen, ising_density, capsys):
    # a ring below stable_ring_length(2, 2, mode) is flagged in the report,
    # not warned about: 5 sites global, 4 local
    for mode, n0 in (("global", 5), ("local", 4)):
        for n, short in ((n0 - 1, True), (n0, False), (8, False)):
            assert main(["check", "--gen", heis_gen, "--density", ising_density,
                         "--mode", mode, "--n", str(n)]) == 0
            out, err = capsys.readouterr()
            assert err == ""
            assert json.loads(out)["result"]["short_ring"] is short


# -- kernel and canon ----------------------------------------------------------


def test_kernel_dimension(heis_gen, tmp_path):
    code, rep = run_json(["kernel", "--gen", heis_gen], tmp_path)
    assert code == 0
    assert rep["result"]["dimension"] == 10
    assert len(rep["result"]["basis"]) == 10


def test_canon_reports_parameters(tmp_path):
    a = PauliOperator(2, {"XX": 1.0, "YY": 0.6, "ZZ": 0.3, "ZI": 0.2, "IZ": 0.2})
    path = tmp_path / "a.op"
    path.write_text(format_density_file(a))
    code, rep = run_json(["canon", "--density", str(path)], tmp_path)
    assert code == 0
    res = rep["result"]
    assert res["mu"] == pytest.approx(0.6)
    assert res["nu"] == pytest.approx(0.3)
    assert res["h"] == pytest.approx([0.0, 0.0, 0.2])
    assert res["reconstruction_residual"] < 1e-10
    assert res["ising_type"] is False


def test_canon_flags_ising(ising_density, tmp_path):
    code, rep = run_json(["canon", "--density", ising_density], tmp_path)
    assert code == 0
    assert rep["result"]["ising_type"] is True


# -- obstruction ---------------------------------------------------------------


def test_obstruction_heisenberg_point(tmp_path):
    code, rep = run_json(
        ["obstruction", "--r", "2", "--mu", "1", "--nu", "1",
         "--hx", "0", "--hy", "0", "--hz", "0"], tmp_path)
    assert code == 0
    assert rep["result"]["verdict"] == "negative_definite"
    assert rep["result"]["max_eigenvalue"] == pytest.approx(-8.0)
    assert "matrix" not in rep["result"]


def test_obstruction_origin_is_semidefinite(tmp_path):
    code, rep = run_json(["obstruction", "--r", "2"], tmp_path)
    assert code == 0
    assert rep["result"]["verdict"] == "negative_semidefinite"
    assert rep["result"]["nullity"] >= 1


def test_obstruction_emit_matrix(tmp_path):
    code, rep = run_json(
        ["obstruction", "--r", "2", "--mu", "0.5", "--emit-matrix"], tmp_path)
    assert code == 0
    mat = rep["result"]["matrix"]
    assert len(mat) == 15 and len(mat[0]) == 15


# -- scan ----------------------------------------------------------------------


def test_scan_family_csv(tmp_path):
    out = tmp_path / "scan.csv"
    assert main(["scan", "--r", "2", "--family", "xx-field",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    header = [l for l in lines if l.startswith("#")]
    body = [l for l in lines if not l.startswith("#")]
    assert any("schema" in l for l in header)
    assert any("config_hash" in l for l in header)
    assert body[0] == "mu,nu,hx,hy,hz,max_eig,nullity,verdict"
    assert len(body) == 10  # 9 field values plus the column row
    assert all(l.endswith("negative_definite") for l in body[1:])


def test_scan_grid_file(tmp_path):
    grid = tmp_path / "grid.txt"
    grid.write_text("# mu nu hx hy hz\n1 1 0 0 0\n0.0, 0.0, 0.0, 0.0, 0.0\n")
    out = tmp_path / "scan.csv"
    assert main(["scan", "--r", "2", "--grid", str(grid),
                 "--out", str(out)]) == 0
    body = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert body[1].endswith("negative_definite")
    assert body[2].endswith("negative_semidefinite")


def test_scan_bad_grid_line_exit_2(tmp_path, capsys):
    grid = tmp_path / "grid.txt"
    grid.write_text("1 2 3\n")
    assert main(["scan", "--r", "2", "--grid", str(grid)]) == 2
    for line in ("0 0 nan 0 0", "1e400 0 0 0 0"):
        grid.write_text(f"0 0 0 0 0\n{line}\n")
        assert main(["scan", "--r", "2", "--grid", str(grid)]) == 2
    err = capsys.readouterr().err
    assert err.count("grid line 2") == 2 and "converge" not in err


# -- search --------------------------------------------------------------------


def test_search_feasible_exit_0(ising_density, tmp_path):
    # a comment that mentions [problem] does not open a problem section
    commented = tmp_path / "commented.op"
    commented.write_text("r=2  # plain density, no [problem] section\n"
                         "0.61*XX + 0.34*XI + 0.34*IX\n")
    for density in (ising_density, str(commented)):
        code, rep = run_json(
            ["search", "--density", density, "--r", "2",
             "--mode", "local", "--seed", "1"], tmp_path)
        assert code == 0
        assert rep["result"]["status"] == "feasible"
        assert rep["result"]["residual"] < 1e-8
        assert "[gamma]" in rep["result"]["generator"]
        assert rep["result"]["stop_reason"] == "completed_on_face"


def test_search_not_found_exit_3(heis_density, tmp_path):
    code, rep = run_json(
        ["search", "--density", heis_density, "--r", "2", "--seed", "1"],
        tmp_path)
    assert code == 3
    assert rep["result"]["status"] == "not_found"
    assert rep["result"]["certificate"]["verdict"] == "negative_definite"
    assert "generator" not in rep["result"]
    # the search factored the distinct rows of its linear system, built on
    # the stable ring of 2 r + w - 1 = 5 sites (the default ring is longer),
    # in 8 column blocks; they fix 53 gamma directions
    assert rep["result"]["constraints"] == {"rows": 64, "rank": 61, "blocks": 8, "fixed": 53,
                                            "stable_from": 5}
    assert rep["result"]["short_ring"] is False
    # a checked separating hyperplane ended the search at its first check
    assert rep["result"]["stop_reason"] == "separated"
    sep = rep["result"]["separation"]
    assert set(sep) == {"margin", "lambda_min", "y_dot_b", "null_dim"}
    assert sep["margin"] > 0 and isinstance(sep["null_dim"], int)
    assert rep["result"]["gap_trace"] == [[25, rep["result"]["gap_trace"][0][1]]]


def test_search_short_ring_verdict_is_its_own(heis_density, tmp_path):
    # below the stable length (5 sites for r = 2 global) the rows and the
    # verdict belong to that ring alone: the Heisenberg density is conserved
    # on 3 sites and refused from 4 on
    for n, code, status, short in (("3", 0, "feasible", True), ("4", 3, "not_found", True),
                                   (None, 3, "not_found", False)):
        args = ["search", "--density", heis_density, "--r", "2", "--seed", "1"]
        code_got, rep = run_json(args + (["--n", n] if n else []), tmp_path)
        assert (code_got, rep["result"]["status"]) == (code, status)
        assert rep["result"]["short_ring"] is short
        assert rep["result"]["constraints"]["stable_from"] == 5


def test_search_problem_section(ising_density, tmp_path):
    text = Path(ising_density).read_text() + "[problem]\nr_gen = 2\nmode = local\n"
    prob = tmp_path / "prob.op"
    prob.write_text(text)
    code, rep = run_json(["search", "--density", str(prob), "--seed", "1"],
                         tmp_path)
    assert code == 0
    assert rep["config"]["mode"] == "local"
    assert rep["result"]["status"] == "feasible"


def test_search_flag_joins_problem_section(ising_density, tmp_path):
    # a flag the section does not set takes effect
    prob = tmp_path / "prob.op"
    prob.write_text(Path(ising_density).read_text() + "[problem]\nr_gen = 2\n")
    code, rep = run_json(["search", "--density", str(prob), "--n", "9", "--mode", "local",
                          "--seed", "1"], tmp_path)
    assert code == 0
    assert (rep["config"]["r_gen"], rep["config"]["n"], rep["config"]["mode"]) == (2, 9, "local")


def test_search_flag_conflicting_with_section_exit_2(ising_density, tmp_path, capsys):
    # a key set both by a flag and by the section is refused, not overridden
    prob = tmp_path / "prob.op"
    prob.write_text(Path(ising_density).read_text() + "[problem]\nr_gen = 2\nn = 8\n")
    for flags in (["--r", "3"], ["--r", "2"], ["--n", "9"]):
        assert main(["search", "--density", str(prob)] + flags) == 2
        assert "is set twice" in capsys.readouterr().err


def test_search_negative_seed_exit_2(heis_density, capsys):
    assert main(["search", "--density", heis_density, "--r", "2", "--seed=-1"]) == 2
    assert "seed '-1' is negative" in capsys.readouterr().err


def test_search_plain_density_needs_r(ising_density, capsys):
    assert main(["search", "--density", ising_density]) == 2
    capsys.readouterr()


# -- determinism ---------------------------------------------------------------


def test_reports_byte_identical(ising_density, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    args = ["search", "--density", ising_density, "--r", "2",
            "--mode", "local", "--seed", "3"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_config_hash_tracks_config(heis_gen, sx_density, tmp_path):
    _, rep6 = run_json(["check", "--gen", heis_gen, "--density", sx_density,
                        "--n", "6"], tmp_path, "r6.json")
    _, rep7 = run_json(["check", "--gen", heis_gen, "--density", sx_density,
                        "--n", "7"], tmp_path, "r7.json")
    assert rep6["config_hash"] != rep7["config_hash"]
    assert rep6["schema"] == rep7["schema"] == "lindring-report/1"


def test_stdout_when_no_out_flag(heis_gen, sx_density, capsys):
    assert main(["check", "--gen", heis_gen, "--density", sx_density,
                 "--n", "6"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["result"]["verdict"] == "conserved"
