"""Property tests: every file the program writes reads back to what it wrote.

Amplitudes are written with repr, so they come back bit for bit; the
one loss is by design: an imaginary part at most PRUNE_TOL is dropped,
and an amplitude that is left at most PRUNE_TOL is pruned.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from conftest import psd_gammas
from lindring.pauli import PRUNE_TOL, PauliOperator, format_operator, parse_operator
from lindring.generators import (
    LindbladGenerator, format_generator_file, parse_generator_file)
from lindring.rings import format_density_file, parse_density_file

_finite = st.floats(allow_nan=False, allow_infinity=False)
# parts below 1e307 keep the modulus a finite float
_part = st.floats(-1e307, 1e307)
_amplitude = st.one_of(_finite.map(complex), st.builds(complex, _part, _part))


def _operators(n, amplitudes=_amplitude, min_size=0):
    strings = st.text("IXYZ", min_size=n, max_size=n)
    return st.dictionaries(strings, amplitudes, min_size=min_size, max_size=6).map(
        lambda terms: PauliOperator(n, terms))


_any_operator = st.integers(1, 3).flatmap(_operators)


def _as_written(op: PauliOperator) -> dict[str, complex]:
    terms = {s: complex(c.real) if abs(c.imag) <= PRUNE_TOL else c for s, c in op.terms.items()}
    return {s: c for s, c in terms.items() if abs(c) > PRUNE_TOL}


@settings(max_examples=60, deadline=None)
@given(op=_any_operator)
def test_operator_roundtrip(op):
    again = parse_operator(format_operator(op))
    assert again.n == op.n
    assert again.terms == _as_written(op)


@settings(max_examples=40, deadline=None)
@given(op=_any_operator)
def test_density_roundtrip(op):
    again = parse_density_file(format_density_file(op))
    assert again.n == op.n
    assert again.terms == _as_written(op)


_generators = st.integers(1, 2).flatmap(lambda r: st.tuples(
    _operators(r, _finite, min_size=0), psd_gammas(r), st.lists(_operators(r), min_size=1, max_size=3),
    st.booleans()))


@settings(max_examples=60, deadline=None)
@given(parts=_generators)
def test_generator_roundtrip(parts):
    ham, gamma, jumps, structure = parts
    if structure:
        gen = LindbladGenerator(ham.n, hamiltonian=ham, gamma=gamma)
    else:
        gen = LindbladGenerator(ham.n, hamiltonian=ham, lindblads=jumps)
    again = parse_generator_file(format_generator_file(gen))
    assert again.form == gen.form
    assert again.hamiltonian.terms == _as_written(ham)
    if structure:
        written = np.where(np.abs(gamma.imag) <= PRUNE_TOL, gamma.real + 0j, gamma)
        assert np.array_equal(again.gamma, written)
    else:
        assert [L.terms for L in again.lindblads] == [_as_written(L) for L in jumps]


def test_large_gamma_reads_back():
    # a PSD gamma of scale 1e5 rounds to eigenvalues near -1e-5 and must
    # not be refused as indefinite on the way back in
    rng = np.random.default_rng(5)
    for _ in range(20):
        F = rng.standard_normal((15, 2))
        gamma = 1e5 * F @ F.T
        gen = LindbladGenerator(2, gamma=0.5 * (gamma + gamma.T))
        again = parse_generator_file(format_generator_file(gen))
        assert np.array_equal(again.gamma, gen.gamma)
