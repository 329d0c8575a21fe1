import dataclasses

import numpy as np
import pytest
import scipy.linalg

from conftest import random_hermitian_window
from lindring.pauli import PauliOperator, parse_operator
from lindring.generators import LindbladGenerator, basis_strings
from lindring.rings import assemble_sum, global_conservation_residual
from lindring.feasibility import (
    VERIFY_TOL,
    FeasibilityProblem,
    _complete_on_face,
    _distinct_rows,
    _factor_rows,
    _gauss_newton_system,
    _vector_to_gamma,
    build_affine_constraints,
    format_problem_file,
    generator_from_point,
    pack_point,
    parse_problem_file,
    search,
    unpack_point,
    verify_candidate,
)


ISING = {"XX": 0.61, "XI": 0.34, "IX": 0.34, "II": 0.05}
HEISENBERG = {"XX": 1.0, "YY": 1.0, "ZZ": 1.0}
TRANSVERSE = {"ZZ": 1.0, "XI": 0.4, "IX": 0.4}


def ising_problem(mode="global", r_gen=2):
    return FeasibilityProblem(PauliOperator(2, ISING), r_gen=r_gen, mode=mode)


def rank_one_gamma(r, label):
    basis = basis_strings(r)
    v = np.zeros(len(basis), dtype=complex)
    v[basis.index(label)] = 1.0
    return np.outer(v, v.conj())


def exchange_gamma():
    basis = basis_strings(2)
    v = np.zeros(len(basis), dtype=complex)
    for s in ("XX", "YY", "ZZ"):
        v[basis.index(s)] = 1 / np.sqrt(3.0)
    return np.outer(v, v.conj())


# -- packing -------------------------------------------------------------


def test_pack_unpack_roundtrip():
    rng = np.random.default_rng(0)
    m = len(basis_strings(2))
    b = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    gamma = b @ b.conj().T
    eta = rng.standard_normal(m)
    g2, e2 = unpack_point(2, pack_point(gamma, eta))
    assert np.abs(g2 - gamma).max() < 1e-12
    assert np.abs(e2 - eta).max() < 1e-12


def test_pack_is_isometric():
    rng = np.random.default_rng(1)
    m = len(basis_strings(1))
    b = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    gamma = b + b.conj().T
    x = pack_point(gamma)
    assert np.linalg.norm(x) == pytest.approx(np.linalg.norm(gamma), rel=1e-12)


def test_pack_rejects_non_hermitian():
    with pytest.raises(ValueError):
        pack_point(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_generator_from_point_recovers_parts():
    basis = basis_strings(1)
    gamma = rank_one_gamma(1, "Z")
    eta = np.zeros(len(basis))
    eta[basis.index("X")] = 0.5
    gen = generator_from_point(1, pack_point(gamma, eta))
    assert np.abs(gen.gamma - gamma).max() < 1e-12
    assert gen.hamiltonian.coefficient("X") == pytest.approx(0.5)


# -- problem validation --------------------------------------------------


def test_problem_rejects_bad_inputs():
    a = PauliOperator(2, ISING)
    with pytest.raises(ValueError):
        FeasibilityProblem(a, r_gen=4)
    with pytest.raises(ValueError):
        FeasibilityProblem(a, r_gen=2, mode="ring")
    with pytest.raises(ValueError):
        FeasibilityProblem(a, r_gen=2, gamma_trace=0.0)
    with pytest.raises(ValueError):
        FeasibilityProblem(a, r_gen=2, gamma_trace=-1.0)
    for bad in (float("inf"), float("nan")):
        with pytest.raises(ValueError):
            FeasibilityProblem(a, r_gen=2, gamma_trace=bad)
    with pytest.raises(ValueError):
        FeasibilityProblem(PauliOperator(2, {"XY": 1j}), r_gen=2)
    with pytest.raises(ValueError):
        FeasibilityProblem(PauliOperator.zero(2), r_gen=2)
    with pytest.raises(ValueError):
        FeasibilityProblem([], r_gen=2)


def test_problem_defaults_to_safe_ring():
    prob = ising_problem()
    assert prob.n == 8  # 2 * (2 + 2)
    assert FeasibilityProblem(PauliOperator(1, {"Z": 1.0}), r_gen=1).n == 4


# -- affine constraints at known conserving points -------------------------


def known_point_residual(prob, gamma, eta=None):
    cons = build_affine_constraints(prob)
    x = pack_point(gamma, eta)
    return float(np.linalg.norm(cons.matrix @ x - cons.rhs))


def test_ising_rank_one_point_satisfies_constraints():
    gamma = rank_one_gamma(2, "XX")
    for mode in ("local", "global"):
        prob = ising_problem(mode)
        assert known_point_residual(prob, gamma) < 1e-10


def test_dephasing_point_satisfies_constraints():
    prob = FeasibilityProblem(PauliOperator(1, {"Z": 1.0}), r_gen=1)
    assert known_point_residual(prob, rank_one_gamma(1, "Z")) < 1e-10


def test_exchange_point_conserves_all_charges():
    charges = [PauliOperator(1, {p: 1.0}) for p in "XYZI"]
    prob = FeasibilityProblem(charges, r_gen=2, mode="global")
    assert known_point_residual(prob, exchange_gamma()) < 1e-10


@pytest.mark.parametrize("mode", ["global", "local"])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_constraint_rows_match_generator_action(r, mode):
    # away from any conserving point: each row reads the real image coefficient
    rng = np.random.default_rng(10 * r + (mode == "local"))
    a = random_hermitian_window(rng, 2)
    prob = FeasibilityProblem(a, r_gen=r, mode=mode)
    cons = build_affine_constraints(prob)
    basis = basis_strings(r)
    m = len(basis)
    b = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / m
    gamma = b + b.conj().T
    eta = rng.standard_normal(m)
    gen = LindbladGenerator(r, hamiltonian=PauliOperator(r, dict(zip(basis, eta))), gamma=gamma)
    n = prob.n
    image: dict[str, complex] = {}
    if mode == "global":
        A = assemble_sum(a, n)
        for s in range(n):
            for u, c in gen.apply(A, s).terms.items():
                rep = min(u[i:] + u[:i] for i in range(n))
                image["target0:" + rep] = image.get("target0:" + rep, 0j) + c
    else:
        for k in range(n):
            for u, c in gen.apply(a.embed(n, k)).terms.items():
                image[f"target0@{k}:{u}"] = c
    # a Hermitian gamma and real eta map the Hermitian density to a Hermitian image
    assert max(abs(c.imag) for c in image.values()) < 1e-12
    got = cons.matrix[:-1] @ pack_point(gamma, eta)
    labels = cons.labels[:-1]
    want = [image.get(lab, 0j).real for lab in labels]
    assert np.abs(got - np.array(want)).max() < 1e-12
    rows = set(labels)
    assert not [key for key, c in image.items() if abs(c) > 1e-12 and key not in rows]


@pytest.mark.parametrize("r, mode", [(1, "global"), (1, "local"), (2, "global"),
                                     (2, "local"), (3, "global")])
def test_one_factorization(r, mode):
    # the affine projection, the fixed gamma directions B and the face
    # completion all come from one SVD of the rows
    prob = ising_problem(mode, r)
    cons = build_affine_constraints(prob)
    K, b, m2 = cons.matrix, cons.rhs, cons.dim_gamma
    project, x0, B = _factor_rows(cons)
    rng = np.random.default_rng(r)
    x = rng.standard_normal(K.shape[1])
    y = project(x)
    assert np.linalg.norm(project(y) - y) < 1e-10 * (1.0 + np.linalg.norm(x))
    assert np.linalg.norm(K @ y - b) < 1e-10 * (1.0 + np.linalg.norm(b))
    assert np.abs(B.T @ B - np.eye(B.shape[1])).max() < 1e-10
    # B spans the row directions with no Hamiltonian part
    assert B.shape[1] == np.linalg.matrix_rank(K) - np.linalg.matrix_rank(K[:, m2:])
    # the jump X...X kills every X string, so it conserves the Ising density
    warm = pack_point(rank_one_gamma(r, "X" * r)) + 1e-3 * rng.standard_normal(K.shape[1])
    cand = _complete_on_face(prob, cons, x0, B, warm)
    assert cand is not None
    assert np.abs(B.T @ (cand[:m2] - x0[:m2])).max() < 1e-10
    assert np.linalg.norm(K @ cand - b) < 1e-9
    if r <= 2:
        # independent reference: B is the complement of the gamma parts of the null space
        N = scipy.linalg.null_space(K)[:m2]
        assert np.abs(B.T @ N).max() < 1e-10
        assert B.shape[1] + np.linalg.matrix_rank(N) == m2


@pytest.mark.parametrize("r", [1, 2])
def test_gauss_newton_jacobian(r):
    # the completion's closed-form Jacobian against central differences of
    # the residual B^T (pack(U U^dag) - g0) along random complex dU
    _, x0, B = _factor_rows(_distinct_rows(build_affine_constraints(ising_problem(r_gen=r))))
    m = len(basis_strings(r))
    g0 = x0[:m * m]
    Bk, c = _vector_to_gamma(B.T, m), B.T @ g0

    def resid(U):
        return B.T @ (pack_point(U @ U.conj().T)[:m * m] - g0)

    rng = np.random.default_rng(r)
    h = 1e-6
    for rank in (1, 2):
        U = rng.standard_normal((m, rank)) + 1j * rng.standard_normal((m, rank))
        got, J = _gauss_newton_system(Bk, c, U)
        assert np.linalg.norm(got - resid(U)) < 1e-12 * np.linalg.norm(resid(U))
        for _ in range(3):
            dU = rng.standard_normal((m, rank)) + 1j * rng.standard_normal((m, rank))
            diff = (resid(U + h * dU) - resid(U - h * dU)) / (2.0 * h)
            lin = J @ np.concatenate([dU.real.ravel(), dU.imag.ravel()])
            assert np.linalg.norm(lin - diff) < 1e-6 * np.linalg.norm(diff)


def row_space(K):
    """Orthonormal basis of the row space of K and the pseudo-inverse, one SVD."""
    U, sv, Vt = np.linalg.svd(K, full_matrices=False)
    rank = int((sv > sv[0] * max(K.shape) * np.finfo(float).eps).sum())
    return Vt[:rank].T, (Vt[:rank].T / sv[:rank]) @ U[:, :rank].T


@pytest.mark.parametrize("mode", ["global", "local"])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_distinct_rows_same_system(r, mode):
    # the search reads the distinct rows of [K | b], each scaled by
    # sqrt(multiplicity): the same least-squares system as all the rows
    cons = build_affine_constraints(FeasibilityProblem(PauliOperator(1, {"Z": 1.0}),
                                                       r_gen=r, mode=mode))
    K = cons.matrix
    red = _distinct_rows(cons)
    Kb = np.column_stack([K, cons.rhs]) + 0.0
    assert red.matrix.any(axis=1).all()
    assert len({row.tobytes() for row in np.column_stack([red.matrix, red.rhs])}) == len(red.rhs)
    assert len(red.rhs) == len(np.unique(Kb[Kb.any(axis=1)], axis=0)) < len(K)
    # a copy of every row with its zeros signed -0.0 merges with the row
    twin = dataclasses.replace(cons, matrix=np.vstack([K, np.where(K == 0, -0.0, K)]),
                               rhs=np.concatenate([cons.rhs, cons.rhs]))
    assert np.allclose(_distinct_rows(twin).matrix, np.sqrt(2.0) * red.matrix, rtol=1e-14, atol=0)
    # the reference keeps every copy; a zero row of K with a zero entry of b
    # adds nothing to the row space or the step, and leaving those rows out
    # keeps the reference SVD small
    nonzero = K.any(axis=1)
    Q, pinv = row_space(K[nonzero])
    rng = np.random.default_rng(r)
    # copies of a row of K that get different entries of b make the system
    # inconsistent; the copies that still agree in [K | b] keep their weights
    b_off = cons.rhs + 0.1 * rng.integers(0, 2, len(K)) * nonzero
    assert np.linalg.norm(K[nonzero] @ (pinv @ b_off[nonzero]) - b_off[nonzero]) > 1e-2
    for b in (cons.rhs, b_off):
        assert not b[~nonzero].any()
        red = _distinct_rows(dataclasses.replace(cons, rhs=b))
        assert len(red.rhs) < np.count_nonzero(nonzero)
        Qr, pinv_r = row_space(red.matrix)
        # equal ranks: |P - P'| is the sine of the largest principal angle
        assert Qr.shape[1] == Q.shape[1]
        assert np.linalg.norm(Q - Qr @ (Qr.T @ Q), 2) < 1e-12
        for _ in range(3):
            x = rng.standard_normal(K.shape[1])
            tol = 1e-12 * (1.0 + np.linalg.norm(x))
            step = x - pinv @ (K[nonzero] @ x - b[nonzero])
            assert np.linalg.norm(x - pinv_r @ (red.matrix @ x - red.rhs) - step) < tol
            assert abs(np.linalg.norm(red.matrix @ x - red.rhs) - np.linalg.norm(K @ x - b)) < tol


def test_trace_row_normalizes():
    prob = ising_problem()
    cons = build_affine_constraints(prob)
    assert cons.labels[-1] == "trace"
    x = pack_point(2.0 * rank_one_gamma(2, "XX"))
    # doubled trace violates exactly the trace row
    assert float(np.linalg.norm(cons.matrix @ x - cons.rhs)) == pytest.approx(1.0, abs=1e-10)


# -- independent verification ---------------------------------------------


def test_verify_candidate_measures_the_ring():
    prob_z = FeasibilityProblem(PauliOperator(1, {"Z": 1.0}), r_gen=1)
    prob_x = FeasibilityProblem(PauliOperator(1, {"X": 1.0}), r_gen=1)
    gen = generator_from_point(1, pack_point(rank_one_gamma(1, "Z")))
    assert verify_candidate(gen, prob_z) < 1e-12
    assert verify_candidate(gen, prob_x) > 1e-2


def test_hermitian_exchange_jump_conserves_magnetization():
    # identity parts of a Hermitian jump fall out of the dissipator
    L = parse_operator("0.5*II + 0.5*XX + 0.5*YY + 0.5*ZZ")
    gen = LindbladGenerator(2, lindblads=[L])
    a = PauliOperator(1, {"Z": 1.0})
    assert global_conservation_residual(gen, a, 6) < 1e-12


# -- the search ------------------------------------------------------------


def assert_feasible(res, prob, tol=1e-8):
    assert res.status == "feasible"
    assert res.residual < tol
    gam = res.generator.gamma
    assert np.linalg.eigvalsh(gam)[0] > -1e-9
    assert np.trace(gam).real == pytest.approx(prob.gamma_trace, abs=1e-9)
    # the reported residual is reproducible from the returned generator
    assert verify_candidate(res.generator, prob) < tol


@pytest.mark.parametrize("mode", ["local", "global"])
def test_search_finds_ising_dissipator(mode):
    prob = ising_problem(mode)
    res = search(prob, seed=1)
    assert_feasible(res, prob)


def test_search_finds_dephasing():
    prob = FeasibilityProblem(PauliOperator(1, {"Z": 1.0}), r_gen=1)
    res = search(prob, seed=1)
    assert_feasible(res, prob)


def test_search_conserves_all_exchange_charges():
    charges = [PauliOperator(1, {p: 1.0}) for p in "XYZI"]
    prob = FeasibilityProblem(charges, r_gen=2, mode="global")
    res = search(prob, seed=1)
    assert_feasible(res, prob)
    for a in charges:
        assert global_conservation_residual(res.generator, a, prob.n) < 1e-8


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_search_rejects_heisenberg(seed):
    prob = FeasibilityProblem(PauliOperator(2, HEISENBERG), r_gen=2)
    res = search(prob, seed=seed)
    assert res.status == "not_found"
    assert res.stop_reason == "creep"
    assert res.generator is None
    assert res.affine_distance > 1e-3
    assert res.certificate is not None
    assert res.certificate.verdict == "negative_definite"


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_search_rejects_transverse_ising(seed):
    prob = FeasibilityProblem(PauliOperator(2, TRANSVERSE), r_gen=2)
    res = search(prob, seed=seed)
    assert res.status == "not_found"
    assert res.certificate is not None
    assert res.certificate.verdict == "negative_definite"


@pytest.mark.parametrize("tau, size", [(1e5, 1.0), (1e8, 1.0), (1.0, 1e5)])
def test_search_scales_with_the_problem(tau, size):
    # conservation is invariant under gamma -> s gamma and a -> s a, and so
    # are the search's verdicts: its bounds scale with the trace and the target
    target = PauliOperator(2, {s: size * c for s, c in ISING.items()})
    prob = FeasibilityProblem(target, r_gen=2, gamma_trace=tau)
    res = search(prob, seed=1)
    assert res.status == "feasible"
    bound = VERIFY_TOL * tau * max(1.0, target.hs_norm())
    assert res.residual < bound
    assert verify_candidate(res.generator, prob) < bound
    gam = res.generator.gamma
    assert np.linalg.eigvalsh(gam)[0] > -1e-9 * tau
    assert np.trace(gam).real == pytest.approx(tau, rel=1e-9)


def test_search_says_how_it_ended():
    # the identity density is conserved by every generator, so the
    # projections meet outright; the Ising density needs the completion
    ident = search(FeasibilityProblem(PauliOperator(2, {"II": 1.0}), r_gen=2), seed=3)
    assert (ident.status, ident.stop_reason, ident.iterations) == ("feasible", "converged", 28)
    ising = search(ising_problem(), seed=1)
    assert (ising.status, ising.stop_reason) == ("feasible", "completed_on_face")


def test_search_custom_trace_scale():
    prob = ising_problem()
    prob = FeasibilityProblem(prob.target, r_gen=2, gamma_trace=2.5)
    res = search(prob, seed=1)
    assert_feasible(res, prob)


def test_heisenberg_verdict_stable_across_rings():
    for n in (8, 9):
        prob = FeasibilityProblem(PauliOperator(2, HEISENBERG), r_gen=2, n=n)
        assert search(prob, seed=1).status == "not_found"


def test_search_wider_window_still_finds_ising():
    prob = ising_problem(r_gen=3)
    res = search(prob, seed=1)
    assert_feasible(res, prob)


def test_search_wider_window_local_finds_ising():
    prob = ising_problem("local", r_gen=3)
    res = search(prob, seed=1)
    assert_feasible(res, prob, tol=VERIFY_TOL)
    assert res.constraints == (1921, 568, 316)


def test_search_wider_window_still_rejects_heisenberg():
    prob = FeasibilityProblem(PauliOperator(2, HEISENBERG), r_gen=3)
    res = search(prob, seed=1)
    assert res.status == "not_found"
    assert res.certificate is not None
    assert res.certificate.verdict == "negative_definite"


# -- problem files ----------------------------------------------------------


PROBLEM_TEXT = """\
# ising density
r = 2
0.61*XX + 0.34*XI + 0.34*IX + 0.05*II

[problem]
r_gen = 2
mode = global
n = 8
gamma_trace = 1.0
"""


def test_parse_problem_file():
    prob = parse_problem_file(PROBLEM_TEXT)
    assert prob.r_gen == 2
    assert prob.mode == "global"
    assert prob.n == 8
    assert prob.target.coefficient("XX") == pytest.approx(0.61)
    # only a comment-stripped line reading [problem] opens the section
    noted = parse_problem_file("# see the [problem] section below\n" + PROBLEM_TEXT)
    assert noted.target.terms == prob.target.terms
    assert (noted.r_gen, noted.n) == (2, 8)


def test_problem_file_roundtrip():
    prob = parse_problem_file(PROBLEM_TEXT)
    again = parse_problem_file(format_problem_file(prob))
    assert (again.r_gen, again.n, again.mode, again.gamma_trace) == \
        (prob.r_gen, prob.n, prob.mode, prob.gamma_trace)
    assert again.target.terms == prob.target.terms


def test_parse_problem_file_errors():
    with pytest.raises(ValueError):
        parse_problem_file("r = 2\nXX\n")  # no [problem]
    with pytest.raises(ValueError):
        parse_problem_file("r = 2\nXX\n[problem]\nmode = global\n")  # no r_gen
    with pytest.raises(ValueError):
        parse_problem_file("r = 2\nXX\n[problem]\nr_gen = 2\ncolor = red\n")
    with pytest.raises(ValueError):
        parse_problem_file("r = 2\nXX\n[problem]\nbroken line\n")
    for bad in ("inf", "nan"):
        with pytest.raises(ValueError, match="gamma_trace"):
            parse_problem_file(f"r = 2\nXX\n[problem]\nr_gen = 2\ngamma_trace = {bad}\n")
