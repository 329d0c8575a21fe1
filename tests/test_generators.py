import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (
    dense_lindblad_apply,
    oracle_generators,
    psd_gammas,
    random_hermitian_window,
    random_operator,
    random_structure_generator,
)
from lindring import generators
from lindring.pauli import PauliOperator, mul_strings, parse_operator, partial_trace
from lindring.feasibility import pack_point
from lindring.rings import assemble_sum
from lindring.generators import (
    GAMMA_HERMITICITY_TOL,
    LindbladGenerator,
    _image_terms,
    all_strings,
    basis_strings,
    diagonalize_structure,
    format_generator_file,
    kernel,
    parse_generator_file,
    product_table,
    reduced_generator,
    superop_matrix,
    validate_psd,
)


def exchange_generator():
    return LindbladGenerator(2, lindblads=[parse_operator("XX + YY + ZZ")])


def dephasing_generator(axis="X"):
    return LindbladGenerator(1, lindblads=[parse_operator(axis)])


def test_exchange_acts_exactly_on_one_site_x():
    gen = exchange_generator()
    img = gen.apply(parse_operator("XI"))
    # exact integer amplitudes, no tolerance
    assert img.terms == {"XI": (-8 + 0j), "IX": (8 + 0j)}


def test_exchange_superop_entries():
    gen = exchange_generator()
    M = superop_matrix(gen)
    strings = all_strings(2)
    i_xi, i_ix = strings.index("XI"), strings.index("IX")
    assert M[i_xi, i_xi] == -8
    assert M[i_ix, i_xi] == 8


def test_dephasing_superop_diagonal():
    M = superop_matrix(dephasing_generator("X"))
    assert np.allclose(np.diag(M), [0, 0, -4, -4])
    assert np.abs(M - np.diag(np.diag(M))).max() == 0


def test_apply_against_dense_oracle():
    rng = np.random.default_rng(42)
    for trial in range(120):
        r = 1 + int(rng.integers(2))
        n = r + int(rng.integers(3))
        offset = int(rng.integers(n))
        if trial % 2:
            gen = random_structure_generator(rng, r)
            spec = {"hamiltonian": gen.hamiltonian, "gamma": gen.gamma}
        else:
            ls = [random_operator(rng, r, num_terms=3) for _ in range(1 + int(rng.integers(2)))]
            spec = {"hamiltonian": random_hermitian_window(rng, r), "lindblads": ls}
            gen = LindbladGenerator(r, **spec)
        rho = random_operator(rng, n)
        got = gen.apply(rho, offset=offset).to_dense()
        want = dense_lindblad_apply(rho, offset=offset, **spec)
        assert np.abs(got - want).max() < 1e-10
    # every window string under a generator made from gamma and one made
    # from jump operators, on rings as short as the window and at offsets
    # that wrap the ring
    for r in (1, 2, 3):
        for spec in oracle_generators(rng, r):
            gen = LindbladGenerator(r, **spec)
            for n in (r, r + 2):
                for i, piece in enumerate(all_strings(r)):
                    offset = (n - 1 - i) % n
                    word = ["IXYZ"[t] for t in rng.integers(0, 4, size=n)]
                    for w, ch in enumerate(piece):
                        word[(offset + w) % n] = ch
                    rho = PauliOperator.from_label("".join(word), 0.5 - 1.5j)
                    got = gen.apply(rho, offset=offset).to_dense()
                    want = dense_lindblad_apply(rho, offset=offset, **spec)
                    assert np.abs(got - want).max() < 1e-10
    # placements at non-contiguous, reordered and wrapped sites
    for r, n, sites in ((1, 3, (-1,)), (2, 5, (4, 1)), (2, 4, (0, 2)), (2, 3, (2, 0)),
                        (3, 5, (4, 1, 2)), (3, 5, (0, 2, 4)), (3, 4, (3, 0, 1)), (3, 3, (2, 0, 1))):
        for spec in oracle_generators(rng, r):
            rho = random_operator(rng, n, num_terms=8)
            got = LindbladGenerator(r, **spec).apply_at_sites(rho, sites).to_dense()
            want = dense_lindblad_apply(rho, sites=tuple(s % n for s in sites), **spec)
            assert np.abs(got - want).max() < 1e-10


@pytest.mark.parametrize("r", [1, 2, 3])
def test_superop_matrix_full_rank_against_dense_oracle(r):
    # the window kernel shared by the verifier and the constraint builder,
    # on every basis string
    rng = np.random.default_rng(31)
    gen = random_structure_generator(rng, r)
    assert np.linalg.matrix_rank(gen.gamma) == 4 ** r - 1
    # and one made from complex jump operators that carry identity parts
    jumps = oracle_generators(rng, r)[1]
    for gen, spec in ((gen, {"hamiltonian": gen.hamiltonian, "gamma": gen.gamma}),
                      (LindbladGenerator(r, **jumps), jumps)):
        M = superop_matrix(gen)
        assert M.dtype == np.float64
        strings = all_strings(r)
        for k, s in enumerate(strings):
            column = PauliOperator(r, {t: M[a, k] for a, t in enumerate(strings)})
            want = dense_lindblad_apply(PauliOperator.from_label(s), **spec)
            assert np.abs(column.to_dense() - want).max() < 1e-10


def test_apply_builds_only_the_window_pieces_it_reads(monkeypatch):
    # the image of a window string is made when a ring string first shows
    # it and then kept; the other window strings are never built
    calls = []
    real_column = generators._real_column

    def counting(r, b):
        calls.append(b)
        return real_column(r, b)

    monkeypatch.setattr(generators, "_real_column", counting)
    gen = random_structure_generator(np.random.default_rng(5), 3)
    A = assemble_sum(parse_operator("XX + YY + ZZ"), 10)
    first = gen.apply(A)
    # III, three two-site pieces at either end and three one-site pieces at either end
    assert len(calls) == len(set(calls)) == 13
    assert gen.apply(A).terms == first.terms
    assert len(calls) == 13


def test_image_terms_refuse_non_real_coefficients():
    # the real coordinates hold the image of an operator with real Pauli
    # coefficients, as a Hermitian one has
    with pytest.raises(ValueError, match="real coefficients"):
        _image_terms(1, PauliOperator(1, {"X": 1.0, "Z": 0.5j}), False)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_product_table_matches_mul_strings(r):
    # the digit arithmetic gives every phase bit for bit, signed zeros too
    phase, index = product_table(r)
    strings = all_strings(r)
    for a, s in enumerate(strings):
        for b, t in enumerate(strings):
            ph, u = mul_strings(s, t)
            assert phase[a, b] == ph and strings[index[a, b]] == u
    want = np.array([[mul_strings(s, t)[0] for t in strings] for s in strings], dtype=complex)
    assert phase.tobytes() == want.tobytes()
    assert not phase.flags.writeable and not index.flags.writeable


def test_apply_wraps_ring_boundary():
    gen = dephasing_generator("X")
    rho = parse_operator("1.0*IIZ")
    img = gen.apply(rho, offset=2)
    assert img.coefficient("IIZ") == -4


def test_trace_and_hermiticity_preserved():
    rng = np.random.default_rng(9)
    ident = PauliOperator.identity(3)
    for _ in range(20):
        gen = random_structure_generator(rng, 2)
        rho = random_operator(rng, 3, hermitian=True)
        img = gen.apply(rho, offset=int(rng.integers(3)))
        assert abs(ident.hs_inner(img)) < 1e-12
        assert img.is_hermitian(1e-11)


def test_kernel_dephasing():
    ops = kernel(dephasing_generator("X"))
    assert len(ops) == 2
    span = {s for op in ops for s in op.terms}
    assert span == {"I", "X"}


def test_kernel_xx_dissipator():
    gen = LindbladGenerator(2, lindblads=[parse_operator("XX")])
    ops = kernel(gen)
    assert len(ops) == 8
    expected = {"II", "XX", "XI", "IX", "YY", "YZ", "ZY", "ZZ"}
    got = {s for op in ops for s in op.terms}
    assert got == expected


def test_kernel_exchange_symmetric_subspace():
    ops = kernel(exchange_generator())
    assert len(ops) == 10
    # every kernel element is swap-symmetric
    for op in ops:
        for s, c in op.terms.items():
            assert abs(op.coefficient(s[::-1]) - c) < 1e-10


@pytest.mark.parametrize("r", [1, 2, 3])
def test_kernel_of_zero_generator_is_every_string(r):
    # the SVD of a zero matrix keeps every direction, one string each
    m = 4 ** r - 1
    ops = kernel(LindbladGenerator(r, gamma=np.zeros((m, m))))
    assert [op.terms for op in ops] == [{s: 1.0} for s in all_strings(r)]


def test_kernel_orthonormal():
    ops = kernel(exchange_generator())
    for i, a in enumerate(ops):
        for j, b in enumerate(ops):
            want = 1.0 if i == j else 0.0
            assert abs(a.hs_inner(b) - want) < 1e-10


def test_one_site_kernels_at_most_two_dimensional():
    rng = np.random.default_rng(77)
    for _ in range(60):
        gen = random_structure_generator(rng, 1)
        assert len(kernel(gen)) <= 2


def test_unitality():
    exchange = exchange_generator()
    assert exchange.apply(PauliOperator.identity(exchange.r)).hs_norm() <= 1e-12
    lowering = LindbladGenerator(1, lindblads=[parse_operator("0.5*X + (0+0.5i)*Y")])
    defect = lowering.apply(PauliOperator.identity(1))
    assert defect.hs_norm() > 0.1


def test_jump_operators_read_into_gamma():
    # gamma = sum c c^dag over the non-identity parts; with the identity
    # parts folded into H, (H, gamma) alone acts as the jump operators do
    rng = np.random.default_rng(5)
    basis = basis_strings(2)
    for _ in range(20):
        ls = [random_operator(rng, 2, num_terms=4) + (0.3 - 0.7j) * PauliOperator.identity(2)
              for _ in range(2)]
        ham = random_hermitian_window(rng, 2)
        gen = LindbladGenerator(2, hamiltonian=ham, lindblads=ls)
        c = np.array([[L.coefficient(t) for t in basis] for L in ls])
        assert np.abs(gen.gamma - c.T @ c.conj()).max() < 1e-12
        assert gen.hamiltonian.coefficient("II") == ham.coefficient("II")
        assert gen.hamiltonian.is_hermitian()
        again = LindbladGenerator(2, hamiltonian=gen.hamiltonian, gamma=gen.gamma)
        rho = random_operator(rng, 3)
        want = dense_lindblad_apply(rho, ham, lindblads=ls, offset=1)
        assert np.abs(again.apply(rho, offset=1).to_dense() - want).max() < 1e-10


def test_jump_operators_that_overflow_are_refused_when_made():
    # the command line runs with numpy overflow raising: a gamma that
    # overflows is refused before the generator acts, and kernel exits 2
    with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
        LindbladGenerator(1, lindblads=[parse_operator("1e200*X")])
    # a folded identity term that overflows is named as the overflow, not as a
    # Hermiticity failure of the (Hermitian, finite) input
    with pytest.raises(ValueError, match="hamiltonian overflows when the identity parts"):
        LindbladGenerator(2, hamiltonian=parse_operator("1.7e308*XX"),
                          lindblads=[parse_operator("(0+1e154i)*II + 1e154*XX")])


def test_diagonalize_structure_roundtrip():
    rng = np.random.default_rng(15)
    for _ in range(10):
        gen = random_structure_generator(rng, 2, rank=3)
        dgen = LindbladGenerator(2, hamiltonian=gen.hamiltonian, lindblads=diagonalize_structure(gen))
        rho = random_operator(rng, 2)
        assert (gen.apply(rho) - dgen.apply(rho)).hs_norm() < 1e-10


def _gamma_and_hamiltonian(r):
    m = len(basis_strings(r))
    return st.tuples(st.just(r), psd_gammas(r),
                     st.lists(st.floats(-1e3, 1e3), min_size=m, max_size=m))


_rng = np.random.default_rng(3)
_F = _rng.standard_normal((15, 2)) + 1j * _rng.standard_normal((15, 2))
_LARGE = 1e5 * _F @ _F.conj().T


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from([1, 2]).flatmap(_gamma_and_hamiltonian))
# rank 2 at scale 1e5: rounding leaves eigenvalues near -3e-10, below -GAMMA_PSD_TOL
@example(case=(2, 0.5 * (_LARGE + _LARGE.conj().T), [1.0] * 15))
def test_structure_and_diagonal_forms_act_alike(case):
    # PSD gamma of any rank at scales 1e-6...1e8; rounding must neither
    # refuse gamma nor move the action
    r, gamma, eta = case
    ham = PauliOperator(r, dict(zip(basis_strings(r), eta)))
    gen = LindbladGenerator(r, hamiltonian=ham, gamma=gamma)
    M = superop_matrix(gen)
    D = superop_matrix(LindbladGenerator(r, hamiltonian=ham, lindblads=diagonalize_structure(gen)))
    assert np.abs(D - M).max() <= 1e-12 * max(1.0, np.abs(M).max())


def test_gamma_validation():
    m = len(basis_strings(1))
    bad = -np.eye(m)
    gen = LindbladGenerator(1, gamma=bad)
    with pytest.raises(ValueError):
        validate_psd(gen)
    with pytest.raises(ValueError):
        diagonalize_structure(gen)
    with pytest.raises(ValueError):
        LindbladGenerator(1, gamma=np.array([[0, 1j], [1j, 0], [0, 0]]))
    with pytest.raises(ValueError):
        LindbladGenerator(1, gamma=np.array([[0, 1], [2, 0], [0, 0]])[:2, :])


def test_reduced_generator_of_xx_pair_noise():
    basis = basis_strings(2)
    g = np.zeros((15, 15))
    i = basis.index("XX")
    g[i, i] = 1.0
    gen = LindbladGenerator(2, gamma=g)
    red = reduced_generator(gen)
    assert red.r == 1
    assert np.allclose(red.gamma, np.diag([2.0, 0, 0]))
    assert red.hamiltonian.is_zero()


def test_reduced_generator_defining_identity():
    rng = np.random.default_rng(31)
    for _ in range(30):
        gen = random_structure_generator(rng, 2)
        red = reduced_generator(gen)
        validate_psd(red)
        for label in "IXYZ":
            sigma = PauliOperator.from_label(label)
            lifted = sigma.embed(2, offset=1)
            want = partial_trace(gen.apply(lifted), (0,))
            got = red.apply(sigma)
            assert (want - got).hs_norm() < 1e-10


def test_reduced_generator_hamiltonian_part():
    h = parse_operator("0.5*IZ + 2.0*XX + 1.0*ZI")
    gen = LindbladGenerator(2, hamiltonian=h, gamma=np.zeros((15, 15)))
    red = reduced_generator(gen)
    assert abs(red.hamiltonian.coefficient("Z") - 1.0) < 1e-14
    assert abs(red.hamiltonian.coefficient("X")) < 1e-14


def test_generator_file_roundtrip_diagonal():
    # a generator made from jump operators is written as its (H, gamma)
    gen = LindbladGenerator(
        2,
        hamiltonian=parse_operator("0.25*ZZ"),
        lindblads=[parse_operator("XX + YY + ZZ"), parse_operator("0.5*IX")],
    )
    text = format_generator_file(gen)
    back = parse_generator_file(text)
    assert "[gamma]" in text and "[lindblad]" not in text
    assert np.array_equal(back.gamma, gen.gamma)
    assert (back.hamiltonian - gen.hamiltonian).hs_norm() < 1e-12
    rng = np.random.default_rng(2)
    rho = random_operator(rng, 2)
    assert (back.apply(rho) - gen.apply(rho)).hs_norm() < 1e-12


def test_generator_file_roundtrip_gamma():
    rng = np.random.default_rng(8)
    gen = random_structure_generator(rng, 1)
    text = format_generator_file(gen)
    back = parse_generator_file(text)
    assert np.abs(back.gamma - gen.gamma).max() < 1e-12


def test_generator_file_gamma_order_permutation():
    text = """
[gamma]
order = Z X Y
1 0 0
0 2 0
0 0 3
"""
    gen = parse_generator_file(text)
    # canonical order X Y Z
    assert np.allclose(gen.gamma, np.diag([2.0, 3.0, 1.0]))


def test_generator_file_errors():
    with pytest.raises(ValueError):
        parse_generator_file("[lindblad]\nXX\n[gamma]\n1\n")
    with pytest.raises(ValueError):
        parse_generator_file("XX\n")
    with pytest.raises(ValueError):
        parse_generator_file("[hamiltonian]\nXX\n")
    with pytest.raises(ValueError):
        parse_generator_file("[gamma]\norder = X Y\n1 0\n0 1\n")
    with pytest.raises(ValueError):
        parse_generator_file("[gamma]\norder =\n1\n")
    # a structure matrix with a negative eigenvalue is not a Lindbladian
    with pytest.raises(ValueError, match="positive semidefinite"):
        parse_generator_file("[gamma]\norder = X Y Z\n-1 0 0\n0 0 0\n0 0 0\n")
    # slightly indefinite within GAMMA_PSD_TOL still reads
    parse_generator_file("[gamma]\norder = X Y Z\n-1e-12 0 0\n0 1 0\n0 0 0\n")
    for text in ("[hamiltonian]\n1e400*XX\n[lindblad]\nXX\n",
                 "[lindblad]\n(1-1e400i)*XX\n",
                 "[gamma]\norder = X Y Z\n1e400 0 0\n0 0 0\n0 0 0\n",
                 "[gamma]\norder = X Y Z\n1 (0+1e999i) 0\n(0-1e999i) 0 0\n0 0 0\n"):
        with pytest.raises(ValueError, match="not finite"):
            parse_generator_file(text)


def test_hermiticity_bound_scales_with_gamma():
    # 1e5 * F @ F.T is not formed as a symmetric product, so its rounding
    # leaves an asymmetry in proportion to its size
    rng = np.random.default_rng(5)
    for _ in range(20):
        F = rng.standard_normal((15, 2))
        gamma = 1e5 * F @ F.T
        assert np.abs(gamma - gamma.T).max() > GAMMA_HERMITICITY_TOL
        assert np.array_equal(LindbladGenerator(2, gamma=gamma).gamma, gamma)
        assert pack_point(gamma).shape == (15 * 15 + 15,)
    # an asymmetry far above rounding is refused at this scale too
    bad = 0.5 * (gamma + gamma.T)
    bad[0, 1] += 1e-6 * np.abs(gamma).max()
    with pytest.raises(ValueError, match="Hermitian"):
        LindbladGenerator(2, gamma=bad)
    with pytest.raises(ValueError, match="Hermitian"):
        pack_point(bad)


def test_gamma_bounds_have_no_floor():
    # the PSD and Hermiticity bounds follow gamma down to any scale: they are
    # relative to its largest eigenvalue or entry, and a zero gamma passes both
    with pytest.raises(ValueError, match="positive semidefinite"):
        validate_psd(LindbladGenerator(1, gamma=np.diag([-1e-11, 1e-13, 0.0])))
    anti = 1e-13 * np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match="Hermitian"):
        LindbladGenerator(1, gamma=anti)
    with pytest.raises(ValueError, match="Hermitian"):
        LindbladGenerator(1, gamma=1j * np.diag([1e-13, 0.0, -1e-13]))
    assert np.array_equal(validate_psd(LindbladGenerator(1, gamma=np.zeros((3, 3)))), np.zeros(3))


def test_nontrivial_gamma_psd_eigenvalues():
    rng = np.random.default_rng(4)
    gen = random_structure_generator(rng, 2, rank=4)
    w = validate_psd(gen)
    assert w.min() > -1e-12
    assert abs(w.sum() - 1.0) < 1e-12
