"""Fuzzed input files through the command line: every run ends with a documented exit code.

Generator, density, problem and grid files are drawn near the valid
formats (ordinary, huge, tiny, non-finite, complex and malformed numbers,
wrong strings, broken headers) and then edited line by line.  Each file
goes through the subcommands that read it; whatever the input, the run
must end with exit 0, 2, 3 or 64 and print no traceback.
"""

import contextlib
import io
import os
import tempfile

import numpy as np
from hypothesis import given, settings, strategies as st

from lindring.cli import main
from lindring.generators import basis_strings

EXIT_CODES = (0, 2, 3, 64)


def _mostly(usual, other):
    """`usual` in three draws out of four, so that most files reach the analysis."""
    return st.tuples(st.booleans(), st.booleans()).flatmap(lambda b: usual if any(b) else other)


_NUMBER = _mostly(
    st.one_of(st.floats(-10.0, 10.0).map(repr), st.integers(-3, 3).map(str)),
    st.one_of(st.floats().map(repr),
              st.sampled_from(["1e308", "-1e308", "1e400", "5e-324", "nan", "-inf", "(1+2i)",
                               "(0-1e308i)", "(1e300+1e300i)", "1.", ".5", "--1", "1e", "i", ""])),
)
_JUNK = st.text("IXYZAi0123456789+-*().e=,# []", max_size=24)


def _string(r):
    return _mostly(st.text("IXYZ", min_size=r, max_size=r), st.text("IXYZA", max_size=r + 1))


def _operator_line(r):
    term = st.tuples(_NUMBER, _string(r)).map(lambda t: f"{t[0]}*{t[1]}")
    return st.lists(term, min_size=1, max_size=2).map(" + ".join)


@st.composite
def _edited(draw, lines):
    """The lines with up to two of them inserted, replaced or deleted, as file text."""
    lines = list(lines)
    for _ in range(draw(_mostly(st.just(0), st.integers(1, 2)))):
        i = draw(st.integers(0, len(lines)))
        edit = draw(st.sampled_from(["insert", "replace", "delete"]))
        if edit == "insert" or i == len(lines):
            lines.insert(i, draw(_JUNK))
        elif edit == "replace":
            lines[i] = draw(_JUNK)
        else:
            del lines[i]
    return "\n".join(lines) + "\n"


@st.composite
def _density_lines(draw):
    r = draw(st.integers(1, 3))
    header = draw(_mostly(st.just(f"r={r}"), st.sampled_from(["r=0", "r=x", "r=4", ""])))
    return [header] + draw(st.lists(_operator_line(r), min_size=1, max_size=2))


@st.composite
def _gamma_rows(draw, r):
    """scale * F F^dag for a random rank-2 factor F, with a few entries overwritten."""
    m = len(basis_strings(r))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    F = rng.standard_normal((m, 2)) + 1j * rng.standard_normal((m, 2))
    gamma = 10.0 ** draw(st.integers(-8, 12)) * (F @ F.conj().T)
    rows = [[f"({float(c.real)!r}{float(c.imag):+}i)" for c in row] for row in gamma]
    for _ in range(draw(_mostly(st.just(0), st.integers(1, 2)))):
        rows[draw(st.integers(0, m - 1))][draw(st.integers(0, m - 1))] = draw(_NUMBER)
    return [" ".join(row) for row in rows]


@st.composite
def _generator_file(draw):
    r = draw(st.integers(1, 2))
    lines = []
    if draw(st.booleans()):
        lines += ["[hamiltonian]"] + draw(st.lists(_operator_line(r), min_size=1, max_size=2))
    if draw(st.booleans()):
        lines += ["[lindblad]"] + draw(st.lists(_operator_line(r), min_size=1, max_size=2))
    else:
        order = draw(st.permutations(basis_strings(r)))
        lines += ["[gamma]", "order = " + " ".join(order)] + draw(_gamma_rows(r))
    return draw(_edited(lines))


@st.composite
def _problem_file(draw):
    # r_gen stays 1 where it parses, so every search is small
    options = {
        "r_gen": _mostly(st.just("1"), st.sampled_from(["0", "4", "x"])),
        "n": st.sampled_from(["3", "4", "8", "1", "-2", "x"]),
        "mode": st.sampled_from(["global", "local", "both"]),
        "gamma_trace": _NUMBER,
    }
    keys = ["r_gen"] + draw(st.lists(st.sampled_from(list(options)[1:]), unique=True))
    lines = draw(_density_lines()) + ["[problem]"]
    lines += [f"{key} = {draw(options[key])}" for key in keys]
    return draw(_edited(lines))


_point = st.one_of(st.floats(0.0, 1.0).map(repr), _NUMBER)
_GRID = st.lists(
    st.one_of(st.lists(_point, min_size=5, max_size=5).map(" ".join),
              st.lists(_point, min_size=4, max_size=6).map(", ".join),
              st.just("# mu nu hx hy hz")),
    min_size=1, max_size=3).flatmap(_edited)


@settings(max_examples=30, deadline=None)
@given(gen=_generator_file(), density=_density_lines().flatmap(_edited),
       problem=_problem_file(), grid=_GRID, grid_r=st.sampled_from(["2", "3"]))
def test_cli_on_fuzzed_files(gen, density, problem, grid, grid_r):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, text in (("gen", gen), ("density", density), ("problem", problem),
                           ("grid", grid)):
            paths[name] = os.path.join(tmp, name)
            with open(paths[name], "w", encoding="utf-8") as fh:
                fh.write(text)
        runs = [
            ["kernel", "--gen", paths["gen"]],
            ["check", "--gen", paths["gen"], "--density", paths["density"]],
            ["canon", "--density", paths["density"]],
            ["search", "--density", paths["density"], "--r", "1"],
            ["search", "--density", paths["problem"]],
            ["scan", "--r", grid_r, "--grid", paths["grid"]],
        ]
        for argv in runs:
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(argv + ["--out", os.path.join(tmp, "out")])
            assert code in EXIT_CODES, (argv, code, err.getvalue())
            assert "Traceback" not in err.getvalue()
