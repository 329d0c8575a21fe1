import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import dense_image, dense_string

from lindring.pauli import PauliOperator, parse_operator
from lindring.generators import LindbladGenerator, _vector_to_gamma, basis_strings
from lindring.rings import CanonicalParams, assemble_sum
from lindring import obstruction
from lindring.cli import main
from lindring.obstruction import (
    H_AXIS,
    _CHUNK,
    assemble_C_2site,
    assemble_C_3site,
    c2prime_diagnostics,
    certify_definiteness,
    closed_form_C_2site,
    combination_matrix,
    conservation_forms,
    family_grid,
    rows_to_csv,
    scan,
    unitality_forms,
)

ISING = CanonicalParams.at(0.0, 0.0)


def coeff_vector(op, r):
    return np.array([op.terms.get(s, 0.0) for s in basis_strings(r)], dtype=complex)


def random_params(rng):
    mu, nu = rng.uniform(0, 1, 2)
    h = tuple(rng.uniform(-2, 2, 3))
    return CanonicalParams.at(mu, nu, h)


# -- projection equations -----------------------------------------------------


def test_named_equations_vanish_on_ising_dephasing():
    forms = conservation_forms(2, ISING)
    assert list(forms) == ["xx", "yy", "zz", "x", "y", "z"]
    c = coeff_vector(parse_operator("XX"), 2)
    for f in forms.values():
        assert f.value(c) == 0.0


def test_equations_match_generator_action():
    # the form value must reproduce the pattern coefficient of the image
    # of the summed density under the actual generator
    rng = np.random.default_rng(5)
    for r_gen, n in ((2, 8), (3, 10)):
        strings = basis_strings(r_gen)
        m = len(strings)
        for _ in range(3 if r_gen == 2 else 2):
            params = random_params(rng)
            hx, hy, hz = params.h
            a = parse_operator(
                f"XX + {params.mu} YY + {params.nu} ZZ"
                f" + {hx} XI + {hx} IX + {hy} YI + {hy} IY + {hz} ZI + {hz} IZ")
            ring = assemble_sum(a, n)
            c = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            d = rng.standard_normal(m)
            L = PauliOperator(r_gen, dict(zip(strings, c)))
            ham = PauliOperator(r_gen, dict(zip(strings, d + 0j)))
            gen = LindbladGenerator(r_gen, hamiltonian=ham, lindblads=[L])
            image = PauliOperator.zero(n)
            for s in range(n):
                image = image + gen.apply(ring, s)
            # XIIIIX has n/2 translates on the r=3 ring of n=10
            patterns = {"xx": "XX", "yy": "YY", "zz": "ZZ", "x": "X", "y": "Y",
                        "z": "Z", "zy": "ZY", "xIx": "XIX", "xIIIIx": "XIIIIX"}
            forms = conservation_forms(r_gen, params, patterns=tuple(patterns))
            for name, pat in patterns.items():
                want = complex(PauliOperator.from_label(pat).embed(n).hs_inner(image))
                got = forms[name].value(c, d)
                assert abs(want.imag) < 1e-9
                assert got == pytest.approx(want.real, abs=1e-9)


def test_equation_hamiltonian_parts_cancel_only_in_combination():
    rng = np.random.default_rng(0)
    params = CanonicalParams.at(0.5, 0.2, (0.3, 0.1, -0.4))
    forms = conservation_forms(2, params)
    for f in forms.values():
        assert np.abs(f.d_linear).max() > 0.5
    hx, hy, hz = params.h
    weights = {"xx": 1.0, "yy": params.mu, "zz": params.nu,
               "x": 2 * hx, "y": 2 * hy, "z": 2 * hz}
    combined = sum(weights[k] * forms[k].d_linear for k in forms)
    assert np.abs(combined).max() < 1e-12
    for _ in range(500):
        d = rng.standard_normal(15)
        assert abs(combined @ d) < 1e-10


def test_extra_pattern_classes_on_request():
    forms = conservation_forms(2, ISING, patterns=("zy", "xIx"))
    assert set(forms) == {"zy", "xIx"}
    c = coeff_vector(parse_operator("XX"), 2)
    for f in forms.values():
        assert np.abs(f.Q - f.Q.conj().T).max() < 1e-12
        # the Ising dephasing conserves everything, class by class
        assert abs(f.value(c)) < 1e-12


def test_conservation_forms_input_errors():
    with pytest.raises(ValueError):
        conservation_forms(4, ISING)
    with pytest.raises(ValueError):
        conservation_forms(2, CanonicalParams(0.0, 0.0, (0, 0, 0),
                                              np.eye(3), np.eye(3), 0.0, 0.0))
    with pytest.raises(ValueError):
        conservation_forms(2, ISING, patterns=("xq",))
    # longer than the ring of n=8: no class of the ring, not a zero form
    with pytest.raises(ValueError, match="longer than the ring"):
        conservation_forms(2, ISING, patterns=("xxxxxxxxxzz",))


# -- unitality forms ----------------------------------------------------------


def test_unitality_form_counts_and_structure():
    uf2 = unitality_forms(2)
    uf3 = unitality_forms(3)
    assert set(uf2) == {"xx", "yy", "zz", "xy", "xz", "yz", "x", "y", "z"}
    assert len(uf3) == 48
    for f in list(uf2.values()) + list(uf3.values()):
        assert np.abs(f.d_linear).max() == 0
        assert np.abs(f.Q.real).max() < 1e-13
        assert np.abs(f.Q - f.Q.conj().T).max() < 1e-13


def test_unitality_forms_vanish_on_hermitian_jumps():
    c = coeff_vector(parse_operator("XX"), 2)
    for f in unitality_forms(2).values():
        assert f.value(c) == 0.0
    c3 = coeff_vector(PauliOperator(3, {"XYZ": 1.0, "ZII": 0.5}), 3)
    for f in unitality_forms(3).values():
        assert abs(f.value(c3)) < 1e-12


def test_unitality_form_matches_identity_image():
    # lowering jump on the first site: identity image is 2 Z1
    low = PauliOperator(2, {"XI": 0.5, "YI": 0.5j})
    gen = LindbladGenerator(2, lindblads=[low])
    defect = gen.apply(PauliOperator.identity(2))
    c = coeff_vector(low, 2)
    uf = unitality_forms(2)
    for name, pattern in (("x", "XI + IX"), ("z", "ZI + IZ")):
        direct = complex(parse_operator(pattern).hs_inner(defect))
        assert uf[name].value(c) == pytest.approx(direct.real, abs=1e-12)
    assert uf["z"].value(c) == pytest.approx(2.0)


# -- assembly and closed form -------------------------------------------------


def test_assembled_matches_closed_form_up_to_global_scalar():
    rng = np.random.default_rng(17)
    points = [random_params(rng) for _ in range(50)]
    points += [ISING, CanonicalParams.at(1, 1), CanonicalParams.at(1, 0, (0.5, 0, 0))]
    scalars = []
    for p in points:
        a = assemble_C_2site(p)
        c = closed_form_C_2site(p)
        assert a.C.shape == (15, 15) and c.C.shape == (15, 15)
        assert np.abs(a.C - a.C.T).max() < 1e-12
        denom = float(a.C.ravel() @ a.C.ravel())
        s = float(c.C.ravel() @ a.C.ravel()) / denom
        assert np.abs(c.C - s * a.C).max() < 1e-9
        scalars.append(s)
    scalars = np.array(scalars)
    assert scalars.min() > 0
    assert np.abs(scalars - scalars[0]).max() < 1e-9
    # this normalization puts the fitted scalar at exactly 4
    assert scalars[0] == pytest.approx(4.0, abs=1e-12)


def test_width2_tables_keep_the_closed_forms_exact_zeros():
    # h = 0, one, two and three field axes; the congruence must not leave rounding off the blocks
    sizes = {(0.5, 0.3, 0.0, 0.0, 0.0): [1] * 15,
             (0.5, 0.3, 0.7, 0.0, 0.0): [1, 1, 1, 1, 2, 2, 2, 2, 3],
             (0.5, 0.3, 0.7, -0.4, 0.0): [3, 3, 3, 6],
             (0.5, 0.3, 0.7, -0.4, 1.1): [6, 9],
             (1.0, 0.35, 0.0, 0.0, 0.5): [1, 1, 1, 1, 2, 2, 2, 2, 3]}
    for (mu, nu, *h), want in sizes.items():
        p = CanonicalParams.at(mu, nu, h)
        mat = assemble_C_2site(p)
        assert sorted(len(b) for b in mat.blocks) == want
        assert np.array_equal(mat.C == 0, closed_form_C_2site(p).C == 0)


@pytest.mark.parametrize("point, sizes", [
    ((0.5, 0.3, 0.0, 0.0, 0.0), {1: 3, 3: 12, 6: 4}),
    ((0.0, 0.0, 0.0, 0.0, 0.0), {1: 55, 2: 4}),
    ((0.5, 0.3, 0.7, 0.0, 0.0), {1: 1, 6: 5, 10: 2, 12: 1}),
    ((0.5, 0.3, 0.7, -0.4, 0.0), {12: 2, 16: 1, 23: 1}),
    ((0.5, 0.3, 0.7, -0.4, 1.1), {24: 1, 39: 1}),
])
def test_width3_blocks_keep_their_documented_sizes(point, sizes):
    # h = 0, the origin, one, two and three field axes, in the reflection
    # basis (block size: how many); C is 0.0 off the blocks
    mat = assemble_C_3site(CanonicalParams.at(point[0], point[1], point[2:]))
    assert Counter(len(b) for b in mat.blocks) == sizes
    assert np.array_equal(np.sort(np.concatenate(mat.blocks)), np.arange(63))
    off = np.ones((63, 63), dtype=bool)
    for b in mat.blocks:
        off[np.ix_(b, b)] = False
    assert np.all(mat.C[off] == 0.0)


# the paper's route to the tables: pattern i projected with weight f_i a_i,
# against component j with weight a_j, collects in term k = (i, j)
PATTERNS = ["XX", "YY", "ZZ", "X", "Y", "Z"]
F = np.array([1.0, 1.0, 1.0, 2.0, 2.0, 2.0])
TERMS = np.triu_indices(6)


def forms_route_terms(r):
    """Each term's Hermitian Q_k, as _vector_to_gamma reads it, and its Hamiltonian part."""
    g, l = obstruction._pattern_forms(PATTERNS, 2 * r + 1, r)
    half = np.where(TERMS[0] == TERMS[1], 0.5, 1.0)[:, None]
    g, l = g * F[:, None, None], l * F[:, None, None]
    P = half * (g + g.swapaxes(0, 1))[TERMS]
    return _vector_to_gamma(P, 4 ** r - 1, 2.0), (l + l.swapaxes(0, 1))[TERMS], l


def forms_route_tables(r):
    """Re Q_k taken through the +-1 reflection columns, then divided by their norms."""
    Q = forms_route_terms(r)[0]
    S = np.sign(combination_matrix(r))
    norm = np.linalg.norm(S, axis=0)
    T = S.T @ Q.real @ S / np.outer(norm, norm)
    return 0.5 * (T + T.swapaxes(1, 2))


@pytest.mark.parametrize("r_gen", [2, 3])
def test_polynomial_terms_cancel_hamiltonian_and_gauge(r_gen):
    # the forms route's own identities: each of the 21 terms a_i a_j has a
    # Hamiltonian part that cancels exactly, though its pieces are not zero,
    # and an imaginary part in the span of the unitality forms
    Q, ham, pieces = forms_route_terms(r_gen)
    assert not ham.any() and np.abs(pieces).max() > 1.0
    U = np.array([f.Q.imag.ravel() for f in unitality_forms(r_gen).values()]).T
    im = Q.imag.reshape(len(Q), -1).T
    off_span = im - U @ np.linalg.lstsq(U, im, rcond=None)[0]
    assert np.abs(im).max() > 1.0
    assert np.all(np.abs(off_span).max(axis=0) <= 1e-12 * np.abs(Q).max(axis=(1, 2)))


@pytest.mark.parametrize("r_gen", [2, 3])
def test_tables_are_the_forms_route(r_gen):
    # the commutator Gram tables and the paper's projections give the same bits
    T = obstruction._polynomial(r_gen)
    want = forms_route_tables(r_gen)
    assert T.shape == want.shape == (21, 4 ** r_gen - 1, 4 ** r_gen - 1)
    assert T.tobytes() == want.tobytes()


@pytest.mark.parametrize("r_gen", [2, 3])
@pytest.mark.parametrize("change", ["double", "sign"])
def test_a_changed_commutator_entry_is_caught(r_gen, change, monkeypatch):
    # one entry of one M_i changed: the tables no longer match the forms route
    commutators = obstruction._commutators

    def mutant(r):
        rows, M = commutators(r)
        i = np.flatnonzero(M[1])[0]
        M[1].flat[i] *= 2.0 if change == "double" else -1.0
        return rows, M

    monkeypatch.setattr(obstruction, "_commutators", mutant)
    T = obstruction._polynomial.__wrapped__(r_gen)
    assert T.tobytes() != forms_route_tables(r_gen).tobytes()


def ring_sum(label, n):
    """The n cyclic placements of a two-site label, as ring strings."""
    s = label.ljust(n, "I")
    return [s[n - o:] + s[:n - o] for o in range(n)]


@pytest.mark.parametrize("r", [1, 2, 3])
def test_commutators_match_dense(r):
    # column s of M_i is [P_s, A_i] in Pauli coefficients, A_i the ring sum of
    # XX, YY, ZZ, XI + IX, YI + IY or ZI + IZ, on 2 r + 1 sites
    rows, M = obstruction._commutators(r)
    n = 2 * r + 1
    assert M.shape == (6, len(rows), 4 ** r - 1) and len(set(rows)) == len(rows)
    labels = [[s + s] for s in "XYZ"] + [[s + "I", "I" + s] for s in "XYZ"]
    sums = [sum(dense_string(u) for lab in labs for u in ring_sum(lab, n)) for labs in labels]
    for b, s in enumerate(basis_strings(r)):
        P = dense_string(s.ljust(n, "I"))
        for i, A in enumerate(sums):
            got = sum((M[i, k, b] * dense_string(rows[k]) for k in np.flatnonzero(M[i, :, b])),
                      np.zeros_like(A))
            assert np.array_equal(got, P @ A - A @ P)


def test_width3_tables_are_integers():
    # read off integer commutators and taken through the +-1 reflection
    # congruence: an exact certificate can take the r=3 tables times the
    # column norms as they are
    T = obstruction._polynomial(3)
    norm = np.linalg.norm(np.sign(combination_matrix(3)), axis=0)
    N = T * np.outer(norm, norm)
    assert np.array_equal(N, np.round(N)) and np.abs(N).max() >= 1.0


@pytest.mark.parametrize("r_gen", [2, 3])
def test_polynomial_on_the_stable_ring_is_the_safe_rings(r_gen, monkeypatch):
    # the tables are read on 2 r + 1 sites; the safe length 2 (r + 2) gives the same bits
    stable = obstruction._polynomial(r_gen)
    monkeypatch.setattr(obstruction, "stable_ring_length", lambda gen_r, a_r, mode: 2 * (gen_r + a_r))
    safe = obstruction._polynomial.__wrapped__(r_gen)
    assert all(np.array_equal(x, y) for x, y in zip(stable, safe))


def dense_pattern_forms(patterns, n, r):
    """Reference for obstruction._pattern_forms: one dense image per density component."""
    m = 4 ** r - 1
    rotations = [{q[i:] + q[:i] for i in range(n)} for q in (p.ljust(n, "I") for p in patterns)]
    keys = {s: i for i, rots in enumerate(rotations) for s in rots}
    weight = n / np.array([len(rots) for rots in rotations])
    sums = obstruction._component_ring_sums(n)
    forms = np.empty((len(rotations), len(sums), m * m + m))
    for c, A in enumerate(sums):
        forms[:, c] = weight[:, None] * dense_image(r, A, False, keys=keys)[1]
    return forms[..., :m * m], forms[..., m * m:]


def dense_unitality_coordinates(r):
    """Reference for the coordinates of unitality_forms: the dense image of the window identity."""
    patterns = obstruction._unitality_patterns(r).values()
    rows = {s: i for i, strings in enumerate(patterns) for s in strings}
    return dense_image(r, PauliOperator.identity(r), False, keys=rows)[1][:, :-(4 ** r - 1)]


@pytest.mark.parametrize("r_gen", [2, 3])
def test_tables_match_a_dense_scatter(r_gen):
    # the sparse image entries, scattered, give the bits of the dense image:
    # the pattern projections and the unitality forms alike
    n = 2 * r_gen + 1
    for got, want in zip(obstruction._pattern_forms(PATTERNS, n, r_gen),
                         dense_pattern_forms(PATTERNS, n, r_gen), strict=True):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    want = _vector_to_gamma(dense_unitality_coordinates(r_gen), 4 ** r_gen - 1, 2.0)
    got = np.array([f.Q for f in unitality_forms(r_gen).values()])
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_3site_matrix_matches_forms():
    # C is the real part of the combination sum_i f_i a_i Q_i, f = (1, 1, 1, 2,
    # 2, 2), over the primitive strings, taken into the reflection basis
    S = combination_matrix(3)
    rng = np.random.default_rng(11)
    for _ in range(10):
        p = random_params(rng)
        forms = conservation_forms(3, p)
        hx, hy, hz = p.h
        w = {"xx": 1.0, "yy": p.mu, "zz": p.nu, "x": 2 * hx, "y": 2 * hy, "z": 2 * hz}
        R = sum(w[k] * forms[k].Q for k in forms).real
        C = assemble_C_3site(p).C
        assert np.abs(C - S.T @ (0.5 * (R + R.T)) @ S).max() < 1e-12 * np.abs(C).max()


def test_combination_has_gauge_content_before_subtraction():
    # the raw Hermitian combination is genuinely complex; only after
    # removing the unitality span does it become the real matrix C
    params = CanonicalParams.at(0.4, 0.7, (0.9, -0.3, 0.2))
    forms = conservation_forms(2, params)
    hx, hy, hz = params.h
    w = {"xx": 1.0, "yy": params.mu, "zz": params.nu,
         "x": 2 * hx, "y": 2 * hy, "z": 2 * hz}
    Ct = sum(w[k] * forms[k].Q for k in forms)
    assert np.abs(Ct - Ct.conj().T).max() < 1e-12
    assert np.abs(Ct.imag).max() > 0.1


def test_closed_form_block_identities():
    rng = np.random.default_rng(2)
    for _ in range(5):
        p = random_params(rng)
        C = closed_form_C_2site(p).C / 32.0
        A = C[9:12, 9:12]
        At = C[12:15, 12:15]
        assert np.allclose(At - A, -np.diag([1.0, p.mu**2, p.nu**2]), atol=1e-12)
        A2 = C[3:6, 3:6]
        assert np.allclose(A2 - A, np.diag([2 * p.mu * p.nu, 2 * p.nu, 2 * p.mu]),
                           atol=1e-12)
        assert np.abs(C[:9, 9:]).max() == 0  # block diagonal across sectors


def test_c2_origin_spectrum():
    C2 = closed_form_C_2site(ISING).C[9:, 9:]
    ev = np.linalg.eigvalsh(C2)
    assert abs(ev[-1]) < 1e-12
    assert (ev[:-1] < -1e-6).all()


def test_c1_nullity_two_on_ising_field_line():
    for hx in (0.0, 0.3):
        C = closed_form_C_2site(CanonicalParams.at(0, 0, (hx, 0, 0))).C
        rep = certify_definiteness(C[:9, :9])
        assert rep.verdict == "negative_semidefinite"
        assert rep.nullity == 2


def test_heisenberg_point_negative_definite():
    for build in (assemble_C_2site, closed_form_C_2site):
        rep = certify_definiteness(build(CanonicalParams.at(1, 1)).C)
        assert rep.verdict == "negative_definite"
        assert rep.max_eigenvalue < -1e-3


def test_ising_kernel_direction_is_the_dephasing():
    m = assemble_C_2site(ISING)
    rep = certify_definiteness(m.C)
    assert rep.verdict == "negative_semidefinite"
    assert rep.nullity == 3
    S = combination_matrix()
    c_prim = coeff_vector(parse_operator("XX"), 2)
    c_comb = S.T @ c_prim  # unit-norm columns make this the coordinate map
    assert np.abs(m.C @ c_comb).max() < 1e-12


def test_multi_jump_sums_stay_negative():
    rng = np.random.default_rng(9)
    C = assemble_C_2site(CanonicalParams.at(0.5, 0.3, (0.1, -0.2, 0.4))).C
    for _ in range(20):
        vs = [rng.standard_normal(15) + 1j * rng.standard_normal(15) for _ in range(3)]
        total = sum(float(np.real(np.conj(v) @ C @ v)) for v in vs)
        norm2 = sum(float(np.real(np.conj(v) @ v)) for v in vs)
        assert total < -1e-9 * norm2


# -- 63 x 63 ------------------------------------------------------------------


def test_3site_origin_semidefinite_nullity_stable():
    m = assemble_C_3site(ISING)
    assert m.C.shape == (63, 63)
    nullities = []
    for zb in (1e-9, 1e-8, 1e-7):
        rep = certify_definiteness(m.C, zero_band=zb)
        assert rep.verdict == "negative_semidefinite"
        assert abs(rep.max_eigenvalue) < 1e-8
        nullities.append(rep.nullity)
    assert nullities[0] == nullities[1] == nullities[2]


def test_3site_xyz_and_field_points_definite():
    for params in (CanonicalParams.at(1, 1), CanonicalParams.at(0.5, 0.3),
                   CanonicalParams.at(0, 0, (0, 0.3, 0.2)),
                   CanonicalParams.at(1, 0, (0.5, 0, 0))):
        rep = certify_definiteness(assemble_C_3site(params).C)
        assert rep.verdict == "negative_definite"


def test_3site_keeps_ising_line_conservers():
    # dephasing along the coupling axis still conserves with a field h_x
    m = assemble_C_3site(CanonicalParams.at(0, 0, (0.7, 0, 0)))
    rep = certify_definiteness(m.C)
    assert rep.verdict == "negative_semidefinite"
    c_prim = coeff_vector(PauliOperator(3, {"XII": 1.0}), 3)
    c = combination_matrix(3).T @ c_prim  # orthonormal columns: the coordinate map
    assert np.abs(m.C @ c).max() < 1e-12


def test_width3_reflection_sectors():
    # R reflects the sites, P1 P2 P3 -> P3 P2 P1; the combination basis is
    # orthonormal, its first 39 columns even under R and its last 24 odd
    basis = basis_strings(3)
    R = np.zeros((63, 63))
    R[[basis.index(s[::-1]) for s in basis], np.arange(63)] = 1.0
    S = combination_matrix(3)
    assert np.abs(S @ S.T - np.eye(63)).max() < 1e-15
    assert np.abs(R @ S - S * np.repeat([1.0, -1.0], [39, 24])).max() < 1e-15
    # no table has an entry between the sectors, so no block crosses them
    T = obstruction._polynomial(3)
    assert np.all(T[:, :39, 39:] == 0.0) and np.all(T[:, 39:, :39] == 0.0)
    blocks = assemble_C_3site(CanonicalParams.at(0.5, 0.3, (0.7, -0.4, 1.1))).blocks
    assert all(b.max() < 39 or b.min() >= 39 for b in blocks)
    # the blocks certify what one eigensolve of the primitive matrix does
    rng = np.random.default_rng(40)
    for _ in range(20):
        mat = assemble_C_3site(random_params(rng))
        rep = certify_definiteness(mat.C, blocks=mat.blocks)
        prim = S @ mat.C @ S.T
        top, nullity, verdict = dense_certify(prim[None])
        assert (rep.verdict, rep.nullity) == (verdict[0], nullity[0])
        ev = np.linalg.eigvalsh(prim)
        assert np.abs(rep.eigenvalues - ev).max() <= 1e-12 * np.abs(ev).max()


def test_width3_scan_blocks_stay_within_a_sector(monkeypatch):
    # the gain of the reflection basis, as a count: no width-3 eigensolve sees
    # a block above 39, on a family at h = 0 and on points with every field nonzero
    sizes, certify = [], obstruction._certify

    def record(stacks, zero_band, points=None):
        sizes.append({S.shape[-1] for S in stacks})
        return certify(stacks, zero_band, points)

    monkeypatch.setattr(obstruction, "_certify", record)
    scan(3, family_grid("xyz"))
    assert max(max(s) for s in sizes) <= 39
    rng = np.random.default_rng(300)
    grid = np.column_stack([rng.uniform(0, 1, (300, 2)), rng.uniform(-2, 2, (300, 3))])
    assert np.all(grid != 0.0)
    sizes.clear()
    scan(3, [tuple(p) for p in grid.tolist()])
    assert set().union(*sizes) == {24, 39}


# -- definiteness reports -----------------------------------------------------


def test_certify_trivial_matrices():
    rep = certify_definiteness(np.diag([-1.0, -2.0]))
    assert rep.verdict == "negative_definite"
    assert rep.nullity == 0
    assert certify_definiteness(-np.eye(16)).verdict == "negative_definite"
    rep = certify_definiteness(np.diag([-1.0, 0.0]))
    assert rep.verdict == "negative_semidefinite"
    assert rep.nullity == 1
    rep = certify_definiteness(np.diag([-1.0, 2.0]))
    assert rep.verdict == "indefinite"


def test_certify_rejects_bad_input():
    with pytest.raises(ValueError):
        certify_definiteness(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        certify_definiteness(np.zeros((2, 3)))
    # NaN fails every check instead of reading as negative definite
    with pytest.raises(OverflowError, match="not finite"):
        certify_definiteness(np.array([[-1.0, np.nan], [np.nan, -1.0]]))


@pytest.mark.parametrize("r_gen, point", [(2, (0.5, 0.5, 10.0, 0.3, 0.2)),
                                           (3, (0.5, 0.25, 0.0, 0.0, 0.0))])
def test_cholesky_check_catches_a_wrong_eigenvalue(monkeypatch, r_gen, point):
    # a negative definite C whose top eigenvalue comes back with the wrong
    # sign reads indefinite; the Cholesky check must refuse that verdict,
    # also where the minors are too small to decide and above 15x15
    assert scan(r_gen, [point])[0][0].verdict == "negative_definite"
    eigvalsh = np.linalg.eigvalsh

    def flipped(a):
        ev = eigvalsh(a).copy()
        ev[..., -1] *= -1.0
        return ev

    monkeypatch.setattr(np.linalg, "eigvalsh", flipped)
    with pytest.raises(ArithmeticError, match=r"Cholesky check at .* = \(0\.5, "):
        scan(r_gen, [point])
    # and an indefinite matrix read as negative definite
    with pytest.raises(ArithmeticError, match="Cholesky"):
        certify_definiteness(np.diag([-1.0, -2.0, 3.0]))


def _one_indefinite_block():
    # blocks {0, 3}, {1, 4}, {2}, interleaved; only {1, 4} has a positive eigenvalue
    C = np.zeros((5, 5))
    C[np.ix_([0, 3], [0, 3])] = [[-2.0, 1.0], [1.0, -3.0]]
    C[np.ix_([1, 4], [1, 4])] = [[-1.0, 2.0], [2.0, -1.0]]
    C[2, 2] = -0.5
    return C, ([0, 3], [1, 4], [2])


def test_cholesky_check_is_made_on_every_block(monkeypatch):
    C, blocks = _one_indefinite_block()
    rep = certify_definiteness(C, blocks=blocks)
    assert rep.verdict == "indefinite" and rep.max_eigenvalue == pytest.approx(1.0)
    assert np.allclose(rep.eigenvalues, np.linalg.eigvalsh(C))
    eigvalsh = np.linalg.eigvalsh

    def all_negative(a):
        return -np.sort(np.abs(eigvalsh(a)), axis=-1)[..., ::-1]

    # the indefinite block read as definite: that block does not factor
    monkeypatch.setattr(np.linalg, "eigvalsh", all_negative)
    with pytest.raises(ArithmeticError, match="Cholesky"):
        certify_definiteness(C, blocks=blocks)
    # a negative definite direct sum still passes under the same reading
    D = C.copy()
    D[np.ix_([1, 4], [1, 4])] = [[-3.0, 1.0], [1.0, -1.0]]
    assert certify_definiteness(D, blocks=blocks).verdict == "negative_definite"

    # and a negative definite sum whose blocks all read indefinite: every block factors
    def all_positive(a):
        return np.abs(eigvalsh(a))

    monkeypatch.setattr(np.linalg, "eigvalsh", all_positive)
    with pytest.raises(ArithmeticError, match="Cholesky"):
        certify_definiteness(D, blocks=blocks)


def test_certify_blocks_must_partition_a_block_diagonal_matrix():
    C, blocks = _one_indefinite_block()
    with pytest.raises(ValueError, match="partition"):
        certify_definiteness(C, blocks=([0, 3], [1, 4]))
    with pytest.raises(ValueError, match="partition"):
        certify_definiteness(C, blocks=([0, 3], [1, 4], [2], [3]))
    C[0, 1] = C[1, 0] = 1e-300
    with pytest.raises(ValueError, match="not zero off its blocks"):
        certify_definiteness(C, blocks=blocks)
    assert certify_definiteness(C).verdict == "indefinite"


def test_eigenvalue_and_sylvester_agree_on_scan_points():
    rng = np.random.default_rng(31)
    for _ in range(10):
        C = assemble_C_2site(random_params(rng)).C
        rep = certify_definiteness(C)
        minors = [np.linalg.det(C[:k, :k]) for k in range(1, len(C) + 1)]
        alternates = all((-1) ** k * m > 0 for k, m in enumerate(minors, 1))
        assert alternates == (rep.verdict == "negative_definite")


# -- the shifted antisymmetric block ------------------------------------------


def test_c2prime_heisenberg_coefficients():
    ev, (b2, b1, b0) = c2prime_diagnostics(CanonicalParams.at(1, 1))
    assert b2 == pytest.approx(12.0, abs=1e-10)
    assert len(ev) == 6


def test_c2prime_identity_and_floor_on_grid():
    rng = np.random.default_rng(13)
    axis = (0.0, 0.25, 0.5, 0.75, 1.0)
    hs = (0.0, 0.4, -1.2)
    for mu in axis:
        for nu in axis:
            for h in hs:
                p = CanonicalParams.at(mu, nu, (h, -h / 2, h / 3))
                ev, (b2, b1, b0) = c2prime_diagnostics(p)
                expect = 4 * (1 + mu**2 + nu**2 + 2 * (h**2 + h**2 / 4 + h**2 / 9))
                assert b2 == pytest.approx(expect, abs=1e-9)
                assert b2 >= 4.0 - 1e-12
                gaps = ev[1::2] - ev[0::2]
                assert np.abs(gaps).max() < 1e-8 * (1 + np.abs(ev).max())


def test_c2prime_shift_never_lowers_top_of_spectrum():
    rng = np.random.default_rng(7)
    for _ in range(10):
        p = random_params(rng)
        ev, _ = c2prime_diagnostics(p)
        C2 = closed_form_C_2site(p).C[9:, 9:] / 32.0
        top2 = np.linalg.eigvalsh(2.0 * C2)[-1]
        assert ev[-1] >= top2 - 1e-12


def test_c2prime_rejects_out_of_range_anisotropy():
    with pytest.raises(ValueError):
        c2prime_diagnostics(CanonicalParams.at(1.5, 0.0))


# -- scans ---------------------------------------------------------------------


def test_scan_xyz_family_definite_except_origin():
    axis = (0.0, 0.25, 0.5, 0.75, 1.0)
    rows, summary = scan(2, family_grid("xyz", mu_axis=axis))
    assert summary["points"] == 25
    assert summary["counts"]["indefinite"] == 0
    assert summary["semidefinite_points"] == [(0.0, 0.0, 0.0, 0.0, 0.0)]
    assert summary["semidefinite_only_on_ising_line"]


def test_scan_field_families_all_definite():
    rows, summary = scan(2, family_grid("xxz", mu_axis=(0.0, 0.5, 1.0),
                                        h_axis=(-1.0, 0.1, 2.0)))
    assert summary["counts"]["negative_definite"] == summary["points"]
    rows, summary = scan(2, family_grid("xx-field"))
    assert summary["counts"]["negative_definite"] == len(H_AXIS)


def test_scan_3site_small_grid():
    rows, summary = scan(3, family_grid("xyz", mu_axis=(0.0, 0.5, 1.0)))
    assert summary["counts"] == {"negative_definite": 8,
                                 "negative_semidefinite": 1, "indefinite": 0}
    assert summary["semidefinite_only_on_ising_line"]


def test_scan_rows_deterministic_and_csv():
    grid = family_grid("ising-fields", h_axis=(-0.5, 0.0, 0.5))
    rows1, _ = scan(2, grid)
    rows2, _ = scan(2, grid)
    assert [(r.hy, r.hz) for r in rows1] == [(r.hy, r.hz) for r in rows2]
    csv = rows_to_csv(rows1)
    lines = csv.strip().split("\n")
    assert lines[0] == "mu,nu,hx,hy,hz,max_eig,nullity,verdict"
    assert len(lines) == 10
    assert rows_to_csv(rows2) == csv


@pytest.mark.parametrize("r_gen", [2, 3])
def test_scan_batched_matches_pointwise(r_gen):
    # full chunks and a partial last one, the Ising-line origin, and fields
    grid = family_grid("xyz", mu_axis=(0.0, 0.5, 1.0))
    grid += family_grid("ising-fields", h_axis=(-1.0, 0.0, 0.5))
    grid += [(0.3, 0.7, 0.2, -1.5, 0.9), (1.0, 0.0, 2.0, 0.0, 0.0), (0.0, 0.0, 0.5, 0.0, 0.0)]
    assert len(grid) % _CHUNK and len(grid) > 2 * _CHUNK
    rows, summary = scan(r_gen, grid)
    single = [scan(r_gen, [p])[0][0] for p in grid]
    fields = ("mu", "nu", "hx", "hy", "hz", "max_eig", "nullity", "verdict")
    assert [[getattr(r, f) for f in fields] for r in rows] == \
        [[getattr(r, f) for f in fields] for r in single]
    assert rows[0].nullity > 0 and summary["semidefinite_points"][0] == grid[0]
    assert rows_to_csv(rows) == rows_to_csv(single)


def dense_certify(C, zero_band=obstruction.ZERO_BAND):
    """The certificate without blocks: one eigensolve of each whole matrix."""
    ev = np.linalg.eigvalsh(0.5 * (C + C.swapaxes(1, 2)))
    top = ev[:, -1]
    tol = zero_band * (1.0 + np.abs(ev).max(axis=1))
    verdict = np.where(top >= tol, "indefinite",
                       np.where(top > -tol, "negative_semidefinite", "negative_definite"))
    return top, (np.abs(ev) < tol[:, None]).sum(axis=1), verdict


def random_pattern_grid(rng, count):
    """Points whose coordinates are often exactly 0, exactly 1 or underflow in a_i a_j."""
    grid = np.column_stack([rng.uniform(0, 1, (count, 2)), rng.uniform(-2, 2, (count, 3))])
    grid[rng.random(grid.shape) < 0.4] = 0.0
    grid[:, :2][rng.random((count, 2)) < 0.15] = 1.0
    grid[rng.random(grid.shape) < 0.1] = 1e-200
    return [tuple(p) for p in grid.tolist()]


@pytest.mark.parametrize("r_gen", [2, 3])
def test_scan_blocks_match_the_dense_certificate(r_gen, monkeypatch):
    rng = np.random.default_rng(24 + r_gen)
    grid = random_pattern_grid(rng, 100)
    for family in ("xyz", "ising-fields", "xxz", "xx-field"):
        grid += family_grid(family)
    calls, certify = [], obstruction._certify

    def record(stacks, zero_band, points=None):
        calls.append((sum(S.size for S in stacks), points))
        return certify(stacks, zero_band, points)

    monkeypatch.setattr(obstruction, "_certify", record)
    rows, _ = scan(r_gen, grid)
    # each pass: points of one weight pattern, within the entry budget; every point once
    for entries, points in calls:
        assert len({tuple(v != 0) for v in obstruction._weights(points)}) == 1
        assert entries <= _CHUNK * 63 ** 2
    assert sorted(tuple(p) for _, points in calls for p in points.tolist()) == sorted(grid)
    assemble = assemble_C_2site if r_gen == 2 else assemble_C_3site
    C = np.stack([assemble(CanonicalParams.at(p[0], p[1], p[2:])).C for p in grid])
    top, nullity, verdict = dense_certify(C)
    assert [r.verdict for r in rows] == verdict.tolist()
    assert [r.nullity for r in rows] == nullity.tolist()
    size = np.abs(C).max(axis=(1, 2))
    assert np.all(np.abs([r.max_eig for r in rows] - top) <= 1e-12 * (1 + size))
    # the blocks rest on exact zeros: off them every weighted table is 0.0
    T = obstruction._polynomial(r_gen)
    for active in {tuple(v != 0) for v in obstruction._weights(np.array(grid))}:
        terms = np.flatnonzero(active)
        blocks = obstruction._blocks(T, terms)
        assert np.array_equal(np.sort(np.concatenate(blocks)), np.arange(T.shape[1]))
        off = np.ones(T.shape[1:], dtype=bool)
        for b in blocks:
            off[np.ix_(b, b)] = False
        assert np.all(T[terms][:, off] == 0.0)


def test_scan_rows_are_obstruction_reports(tmp_path):
    points = {2: [(1.0, nu, 0.0, 0.0, hz) for nu in (0.0, 0.35, 1.0) for hz in (0.0, 0.5, -2.0)]
              + [(0.3, 0.7, 0.2, -1.5, 0.9), (0.0, 0.0, 0.0, 0.0, 0.0)],
              3: [(1.0, 0.35, 0.0, 0.0, 0.5), (0.5, 0.25, 0.0, 0.0, 0.0),
                  (0.0, 0.0, 0.0, 0.5, -1.0), (0.3, 0.7, 0.2, -1.5, 0.9)]}
    # at mu = 1 the xxz matrix has exact zeros inside the blocks of its tables
    mat = assemble_C_2site(CanonicalParams.at(1.0, 0.35, (0.0, 0.0, 0.5)))
    assert any(np.any(mat.C[np.ix_(b, b)] == 0.0) for b in mat.blocks)
    for r_gen, grid in points.items():
        rows, _ = scan(r_gen, grid)
        for i, (row, p) in enumerate(zip(rows, grid)):
            out = tmp_path / f"r{r_gen}-{i}.json"
            argv = ["obstruction", "--r", str(r_gen), "--out", str(out)]
            for flag, v in zip(("--mu", "--nu", "--hx", "--hy", "--hz"), p):
                argv += [flag, repr(v)]
            assert main(argv) == 0
            report = json.loads(out.read_text())["result"]
            assert report["max_eigenvalue"] == row.max_eig
            assert (report["nullity"], report["verdict"]) == (row.nullity, row.verdict)


def test_scan_check_failures_name_the_point():
    # the checks made per point, in _certify, name the point
    grid = [(0.5, 0.25, 0.0, 0.0, 0.0), (1.0, 0.0, 0.5, -1.0, 2.0)]
    points = np.array(grid + grid[:1])
    C = np.stack([-np.eye(3)] * 3)
    C[1, 0, 2] = 1.0
    with pytest.raises(ValueError, match=r"not symmetric at .* = \(1\.0, 0\.0, 0\.5, -1\.0, 2\.0\)"):
        obstruction._certify([C[:, None]], obstruction.ZERO_BAND, points)
    C[1, 0, 2], C[2, 1, 1] = 0.0, np.nan
    with pytest.raises(OverflowError, match=r"not finite at .* = \(0\.5, 0\.25, 0\.0, 0\.0, 0\.0\)"):
        obstruction._certify([C[:, None]], obstruction.ZERO_BAND, points)


_unit = st.floats(0.0, 1.0)
_field = st.floats(-2.0, 2.0)


@settings(max_examples=20, deadline=None)
@given(r_gen=st.sampled_from([2, 3]),
       grid=st.lists(st.tuples(_unit, _unit, _field, _field, _field), min_size=1, max_size=11))
def test_batched_assembly_matches_one_point(r_gen, grid):
    # a point's entries have the same bits in a scan pass, stacked with the
    # other points of its weight pattern, as in its own obstruction matrix
    passes, certify = [], obstruction._certify

    def record(stacks, zero_band, points=None):
        passes.append((stacks, points))
        return certify(stacks, zero_band, points)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(obstruction, "_certify", record)
        scan(r_gen, grid)
    assert sorted(tuple(p) for _, points in passes for p in points.tolist()) == sorted(grid)
    assemble = assemble_C_2site if r_gen == 2 else assemble_C_3site
    for stacks, points in passes:
        for i, p in enumerate(points.tolist()):
            mat = assemble(CanonicalParams.at(p[0], p[1], p[2:]))
            entries, sizes = obstruction._packing(mat.blocks, len(mat.C))
            alone = obstruction._stacks(mat.C.ravel()[entries][None], sizes)
            assert all(np.array_equal(S[i], A[0]) for S, A in zip(stacks, alone, strict=True))


def test_family_grid_unknown_name():
    with pytest.raises(ValueError):
        family_grid("kitaev")
