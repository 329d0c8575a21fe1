import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from conftest import dense_image, dense_string, random_hermitian_window
import lindring.feasibility as feasibility
from lindring.pauli import PauliOperator, parse_operator
from lindring.generators import LindbladGenerator, basis_strings
from lindring.rings import (assemble_sum, global_conservation_residual, safe_ring_length,
                            stable_ring_length)
from lindring.obstruction import _column_blocks
from lindring.feasibility import (
    FeasibilityProblem,
    _commutant,
    _complete_on_face,
    _factor_rows,
    _fixed_coordinates,
    _ring_check,
    _separation,
    _vector_to_gamma,
    build_affine_constraints,
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
        FeasibilityProblem(PauliOperator(2, {"XY": 1j}), r_gen=2)
    with pytest.raises(ValueError):
        FeasibilityProblem(PauliOperator.zero(2), r_gen=2)
    with pytest.raises(ValueError, match="ring sum vanishes on 5 sites"):
        FeasibilityProblem(parse_operator("XI - IX"), r_gen=2)  # every generator conserves it
    with pytest.raises(TypeError):
        FeasibilityProblem([a], r_gen=2)  # one target per problem


def test_problem_defaults_to_safe_ring():
    prob = ising_problem()
    assert prob.n == 8  # 2 * (2 + 2)
    assert FeasibilityProblem(PauliOperator(1, {"Z": 1.0}), r_gen=1).n == 4


def test_ring_operators_are_built_once(monkeypatch):
    # the rows, M and the ring check of a hyperplane read the problem's ring
    # operators: the ring sum is assembled once per global search
    calls, assemble = [], feasibility.assemble_sum
    monkeypatch.setattr(feasibility, "assemble_sum", lambda *a: calls.append(a) or assemble(*a))
    prob = FeasibilityProblem(PauliOperator(2, HEISENBERG), r_gen=2)
    assert search(prob, seed=1).stop_reason == "separated"
    assert len(calls) == 1


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
    for p in "XYZI":
        prob = FeasibilityProblem(PauliOperator(1, {p: 1.0}), r_gen=2, mode="global")
        assert known_point_residual(prob, exchange_gamma()) < 1e-10


@pytest.mark.parametrize("mode", ["global", "local"])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_constraint_rows_match_generator_action(r, mode):
    # away from any conserving point: each row reads the real image
    # coefficient of one placement of the generator, on the stable ring
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
    n = stable_ring_length(r, 2, mode)
    assert n < prob.n
    image: dict[str, complex] = {}
    a = prob.target  # the rows read the target at unit norm
    if mode == "global":
        for u, c in gen.apply(assemble_sum(a, n)).terms.items():
            rep = min(u[i:] + u[:i] for i in range(n))
            image["target0:" + rep] = image.get("target0:" + rep, 0j) + c
    else:
        for k in range(n):
            for u, c in gen.apply(a.embed(n, k)).terms.items():
                image[f"target0@{k}:{u}"] = c
    # a Hermitian gamma and real eta map the Hermitian density to a Hermitian image
    assert max(abs(c.imag) for c in image.values()) < 1e-12
    # the build keeps one row of each set of copies; all the rows have every key
    every = all_rows(prob)
    for system in (cons, every):
        got = system.matrix[:-1] @ pack_point(gamma, eta)
        want = [image.get(lab, 0j).real for lab in system.labels[:-1]]
        assert np.abs(got - np.array(want)).max() < 1e-12
    rows = set(every.labels)
    assert not [key for key, c in image.items() if abs(c) > 1e-12 and key not in rows]


@pytest.mark.parametrize("r, mode", [(1, "global"), (1, "local"), (2, "global"),
                                     (2, "local"), (3, "global")])
def test_one_factorization(r, mode):
    # the row space, the fixed gamma directions B and the face completion
    # all come from one factorization of the rows, an SVD per block
    prob = ising_problem(mode, r)
    cons = build_affine_constraints(prob)
    K, b, m2 = cons.matrix, cons.rhs, cons.dim_gamma
    rows = _factor_rows(cons)
    # the reference row space, with the factor's x0 and its pieces of B
    Vt, x0, B = dense_factor(cons)[0], rows.x0, dense_B(rows)
    assert rows.rank == len(Vt)

    def project(x):
        return x - Vt.T @ (Vt @ x) + x0

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
    cand = _complete_on_face(cons, rows, warm)
    assert cand is not None
    assert np.abs(_fixed_coordinates(rows, cand[:m2] - x0[:m2])).max() < 1e-10
    assert np.linalg.norm(K @ cand - b) < 1e-9
    if r <= 2:
        # independent reference: B is the complement of the gamma parts of the null space
        N = scipy.linalg.null_space(K)[:m2]
        assert np.abs(B.T @ N).max() < 1e-10
        assert B.shape[1] + np.linalg.matrix_rank(N) == m2


def dense_factor(cons):
    """The factorization by one SVD of all the rows: Vt, x0 and B."""
    U, sv, Vt = np.linalg.svd(cons.matrix, full_matrices=False)
    keep = sv > sv[0] * 1e-13
    U, sv, Vt = U[:, keep], sv[keep], Vt[keep]
    H = Vt[:, cons.dim_gamma:].T
    _, sh, vh = np.linalg.svd(H)
    N = vh[np.count_nonzero(sh > np.finfo(float).eps * max(H.shape) * sv[0] / sv[-1] * sh.max()):].T
    return Vt, Vt.T @ ((U.T @ cons.rhs) / sv), Vt[:, :cons.dim_gamma].T @ N


def dense_B(rows):
    """The pieces of B placed on their gamma columns, side by side: one dense matrix."""
    B = np.zeros((rows.m * rows.m, rows.fixed))
    at = 0
    for cols, Bj, _, _ in rows.pieces:
        B[cols, at:at + Bj.shape[1]] = Bj
        at += Bj.shape[1]
    return B


def same_span(Q, R):
    """The sine of the largest angle between the column spans of orthonormal Q and R."""
    return max(np.linalg.norm(Q - R @ (R.T @ Q), 2), np.linalg.norm(R - Q @ (Q.T @ R), 2))


@pytest.mark.parametrize("r, name, mode, blocks", [
    (3, "ising", "global", 9), (3, "ising", "local", 15), (3, "heisenberg", "global", 8),
    (3, "xyz+zyx", "global", 33), (1, "ising", "global", None), (1, "ising", "local", None),
    (2, "heisenberg", "global", None), (2, "ising", "local", None)])
def test_block_factor_matches_dense_svd(r, name, mode, blocks):
    # one SVD per column block gives the rank, the projector, x0 and B of one SVD of K
    density = {"ising": ISING, "heisenberg": HEISENBERG, "xyz+zyx": {"XYZ": 1.0, "ZYX": 1.0}}[name]
    prob = FeasibilityProblem(PauliOperator(len(next(iter(density))), density), r_gen=r, mode=mode)
    cons = build_affine_constraints(prob)
    K = cons.matrix
    rows = _factor_rows(cons)
    Vt, x0, B = dense_factor(cons)
    # the pieces' total width is that of the one B, and their projector is its projector
    assert rows.rank == len(Vt)
    assert rows.fixed == sum(Bj.shape[1] for _, Bj, _, _ in rows.pieces) == B.shape[1]
    assert same_span(dense_B(rows), B) < 1e-12
    projector = np.zeros((cons.dim_gamma, cons.dim_gamma))
    for cols, Bj, _, _ in rows.pieces:
        projector[np.ix_(cols, cols)] += Bj @ Bj.T
    assert np.abs(projector - B @ B.T).max() < 1e-12
    assert np.abs(rows.x0 - x0).max() < 1e-12
    # every row lies in one block, and the blocks share no row and no column
    found = _column_blocks(K != 0)
    assert rows.blocks == len(found)
    assert blocks is None or len(found) == blocks
    owner = np.full(K.shape[1], -1)
    for i, (block_rows, cols) in enumerate(found):
        assert (owner[cols] == -1).all()
        owner[cols] = i
    assert sorted(np.concatenate([block_rows for block_rows, _ in found])) == list(range(len(K)))
    for i, (block_rows, _) in enumerate(found):
        for row in K[block_rows]:
            assert (owner[np.flatnonzero(row)] == i).all()
    # each piece is on the gamma columns of one block, with orthonormal columns, and
    # its D_j turns a c on the block's rows into the hyperplane (B_j c, 0)
    for cols, Bj, block_rows, Dj in rows.pieces:
        block_rows_i, block_cols = found[owner[cols[0]]]
        assert np.array_equal(cols, block_cols[block_cols < cons.dim_gamma])
        assert np.array_equal(block_rows, block_rows_i)
        assert np.abs(Bj.T @ Bj - np.eye(Bj.shape[1])).max() < 1e-12
        want = np.zeros((K.shape[1], Bj.shape[1]))
        want[cols] = Bj
        assert np.abs(K[block_rows].T @ Dj - want).max() < 1e-12


def test_fixed_directions_keep_the_trace(monkeypatch):
    # the trace stays among the fixed directions when the kept rows span
    # several scales: singular values 6.9 to 0.97 for this target at unit norm
    prob = FeasibilityProblem(PauliOperator(1, {"X": 8.564052386204182, "Z": -9.635214922746345}),
                              r_gen=1)
    cons = build_affine_constraints(prob)
    B = dense_B(_factor_rows(cons))
    trace = pack_point(np.eye(3))[:9] / np.sqrt(3)
    assert np.linalg.norm(trace - B @ (B.T @ trace)) < 1e-12
    K = cons.matrix
    assert B.shape[1] == np.linalg.matrix_rank(K) - np.linalg.matrix_rank(K[:, 9:])
    res = search(prob, seed=0)
    assert_feasible(res, prob)
    assert (res.stop_reason, res.iterations) == ("commutant_face", 0)
    assert_no_completion(monkeypatch, prob, 0)


@pytest.mark.parametrize("base", ["XX + YY", "XX + 1e-4*YY"], ids=["xx-yy", "xx-small-yy"])
def test_fixed_directions_do_not_see_the_condition_number(base):
    # a small ZZ coefficient puts small singular values into K, with the
    # same rank at every size; the count of fixed directions must not follow it
    fixed, ranks = set(), set()
    for eps in (1 / 7, 1e-3, 1e-6, 1e-8, 1e-9, 1e-10, 1e-11):
        target = parse_operator(f"{base} + {eps!r}*ZZ")
        rows = _factor_rows(build_affine_constraints(FeasibilityProblem(target, r_gen=2)))
        fixed.add(rows.fixed)
        ranks.add(rows.rank)
    assert len(fixed) == 1 and ranks == {61}, (fixed, ranks)


def row_space(K):
    """Orthonormal basis of the row space of K and the pseudo-inverse, one SVD."""
    U, sv, Vt = np.linalg.svd(K, full_matrices=False)
    rank = int((sv > sv[0] * max(K.shape) * np.finfo(float).eps).sum())
    return Vt[:rank].T, (Vt[:rank].T / sv[:rank]) @ U[:, :rank].T


def all_rows(prob):
    """Every row of the problem, copies and zero rows too, from one dense image per block."""
    r, m = prob.r_gen, len(basis_strings(prob.r_gen))
    rows, labels = [], []
    for prefix, A in prob.ring_ops:
        keys, block = dense_image(r, A, prob.mode == "global")
        block[:, m:m * m] *= 1.0 / np.sqrt(2.0)
        rows.append(block)
        labels.extend(f"{prefix}:{s}" for s in keys)
    trace_row = np.zeros((1, m * m + m))
    trace_row[0, :m] = 1.0
    K = np.vstack(rows + [trace_row])
    rhs = np.zeros(len(K))
    rhs[-1] = 1.0
    return feasibility.AffineConstraints(K, rhs, tuple(labels) + ("trace",), m * m)


def distinct_rows(cons):
    """The nonzero rows of [K | b] and their labels, each byte-distinct row once, first copy
    first; -0.0 reads as 0.0.  The reference for the build's own row keys."""
    K, b = cons.matrix, cons.rhs
    seen: dict[bytes, int] = {}
    for i in np.flatnonzero(K.any(axis=1) | (b != 0)):
        seen.setdefault((np.append(K[i], b[i]) + 0.0).tobytes(), i)
    index = np.fromiter(seen.values(), dtype=int, count=len(seen))
    return feasibility.AffineConstraints(K[index], b[index], tuple(cons.labels[i] for i in index),
                                         cons.dim_gamma)


@pytest.mark.parametrize("density", [ISING, HEISENBERG, TRANSVERSE, {"Z": 1.0}, {"XX": 1.0},
                                     {"XX": 1.0, "ZZ": 0.01}, {"XX": 1.0, "YY": 0.5, "ZZ": 0.2},
                                     {"II": 1.0}, {"XYZ": 1.0, "ZYX": 1.0}])
def test_build_keeps_each_distinct_row_once(density):
    # keyed on its sparse entries, the build writes what the dense reference
    # keeps of all the rows, byte for byte, labels and order too
    for r in (1, 2, 3):
        for mode in ("global", "local"):
            prob = FeasibilityProblem(PauliOperator(len(next(iter(density))), density),
                                      r_gen=r, mode=mode)
            cons, want = build_affine_constraints(prob), distinct_rows(all_rows(prob))
            assert cons.matrix.shape == want.matrix.shape and cons.dim_gamma == want.dim_gamma
            assert cons.matrix.tobytes() == want.matrix.tobytes()
            assert cons.rhs.tobytes() == want.rhs.tobytes()
            assert cons.labels == want.labels


@pytest.mark.parametrize("mode", ["global", "local"])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_distinct_rows_same_system(r, mode):
    # the search reads each distinct nonzero row of [K | b] once, unweighted:
    # the same solution set and the same projection onto it as all the rows
    prob = FeasibilityProblem(PauliOperator(1, {"Z": 1.0}), r_gen=r, mode=mode)
    cons = all_rows(prob)
    K = cons.matrix
    red = distinct_rows(cons)
    # the build writes exactly these rows
    built = build_affine_constraints(prob)
    assert built.matrix.tobytes() == red.matrix.tobytes() and built.labels == red.labels
    Kb = np.column_stack([K, cons.rhs]) + 0.0
    assert red.matrix.any(axis=1).all()
    assert len({row.tobytes() for row in np.column_stack([red.matrix, red.rhs])}) == len(red.rhs)
    assert len(red.rhs) == len(np.unique(Kb[Kb.any(axis=1)], axis=0)) < len(K)
    # each kept row is the first copy, under its own label
    first = [cons.labels.index(label) for label in red.labels]
    assert first == sorted(first)
    assert np.array_equal(red.matrix, K[first]) and np.array_equal(red.rhs, cons.rhs[first])
    # a copy of every row with its zeros signed -0.0 merges with the row
    twin = dataclasses.replace(cons, matrix=np.vstack([K, np.where(K == 0, -0.0, K)]),
                               rhs=np.concatenate([cons.rhs, cons.rhs]),
                               labels=cons.labels + cons.labels)
    merged = distinct_rows(twin)
    assert np.array_equal(merged.matrix, red.matrix) and merged.labels == red.labels
    # the reference keeps every copy; a zero row of K with a zero entry of b
    # adds nothing, and leaving those rows out keeps the reference SVD small
    nonzero = K.any(axis=1)
    Q, pinv = row_space(K[nonzero])
    rng = np.random.default_rng(r)
    # the build's b and a consistent b = K x0, whose copies may differ in their last bits
    for b in (cons.rhs, K @ rng.standard_normal(K.shape[1])):
        assert not b[~nonzero].any()
        red = distinct_rows(dataclasses.replace(cons, rhs=b))
        Qr, pinv_r = row_space(red.matrix)
        # equal ranks: |P - P'| is the sine of the largest principal angle
        assert Qr.shape[1] == Q.shape[1]
        assert np.linalg.norm(Q - Qr @ (Qr.T @ Q), 2) < 1e-12
        for _ in range(3):
            x = rng.standard_normal(K.shape[1])
            tol = 1e-12 * (1.0 + np.linalg.norm(x))
            step = x - pinv @ (K[nonzero] @ x - b[nonzero])
            assert np.linalg.norm(x - pinv_r @ (red.matrix @ x - red.rhs) - step) < tol
            assert np.linalg.norm(red.matrix @ step - red.rhs) < tol


def rows_up_to_scale(K):
    """The nonzero rows of K scaled to a largest entry of 1, once each: a dense
    array of the rows and a key per row, its nonzero pattern and values to 1e-9."""
    i, j = np.nonzero(K)
    vals = K[i, j]
    starts = np.flatnonzero(np.diff(i, prepend=-1))
    first = np.lexsort((-np.abs(vals), i))[starts]  # the largest entry of each row
    vals = vals / np.repeat(vals[first], np.diff(starts, append=len(i)))
    keys = np.round(vals, 9) + 0.0
    rows: dict[bytes, int] = {}
    for k, (a, b) in enumerate(zip(starts, np.append(starts[1:], len(i)))):
        rows.setdefault(j[a:b].tobytes() + keys[a:b].tobytes(), k)
    dense = np.zeros((len(starts), K.shape[1]))
    dense[np.repeat(np.arange(len(starts)), np.diff(starts, append=len(i))), j] = vals
    return dense[list(rows.values())], rows.keys()


def ring_rows(a, r, n, mode):
    """Conservation rows on an n-site ring, apart from the build: the image of
    the whole ring sum (global) or of every placement (local), up to scale."""
    m = 4 ** r - 1
    ops = [assemble_sum(a, n)] if mode == "global" else [a.embed(n, k) for k in range(n)]
    R = np.vstack([dense_image(r, A, mode == "global")[1] for A in ops])
    R[:, m:m * m] /= np.sqrt(2.0)
    return rows_up_to_scale(R)


@pytest.mark.parametrize("mode", ["global", "local"])
@pytest.mark.parametrize("w", [1, 2, 3])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_stable_ring_rows_span_every_longer_ring(r, w, mode):
    # the search's rows come from min(n, n0) sites; they must span the rows
    # of every ring from n0 on, and nothing more.  Rows built on n0 - 1
    # sites fall short for 14 of these 18 densities, every global one among them
    a = random_hermitian_window(np.random.default_rng(10 * r + w), w)
    n0 = 2 * r + w - 1 if mode == "global" else r + w
    assert stable_ring_length(r, w, mode) == n0
    K, built = rows_up_to_scale(build_affine_constraints(
        FeasibilityProblem(a, r_gen=r, n=safe_ring_length(r, w), mode=mode)).matrix[:-1])
    Q = None
    for n in sorted({n0, n0 + 1, n0 + 2, safe_ring_length(r, w)}):
        R, keys = ring_rows(a, r, n, mode)
        if keys == built:
            continue  # the same rows: local mode, and global mode at n0
        if Q is None:
            Q = row_space(K)[0].T
        RQ = R @ Q.T
        assert np.linalg.norm(R - RQ @ Q) <= 1e-12 * np.linalg.norm(R)
        # R lies in the row space of the build; equal ranks make the spaces equal
        gram = np.linalg.eigvalsh(RQ.T @ RQ)
        assert gram[0] > 1e-9 * gram[-1]


@pytest.mark.parametrize("mode", ["global", "local"])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_build_is_the_same_on_every_ring_from_n0(r, mode):
    a = random_hermitian_window(np.random.default_rng(r), 2)
    first = build_affine_constraints(FeasibilityProblem(a, r_gen=r, mode=mode))
    for n in range(stable_ring_length(r, 2, mode), safe_ring_length(r, 2)):
        cons = build_affine_constraints(FeasibilityProblem(a, r_gen=r, n=n, mode=mode))
        assert np.array_equal(cons.matrix, first.matrix) and np.array_equal(cons.rhs, first.rhs)
        assert cons.labels == first.labels


def test_build_peak_stays_near_one_copy_of_the_rows():
    # the image is kept as sparse entries and each distinct row is written
    # once into K at its final size: no dense copy of all the rows
    prob = FeasibilityProblem(PauliOperator(2, HEISENBERG), r_gen=3, mode="global")
    build_affine_constraints(prob)
    tracemalloc.start()
    try:
        K = build_affine_constraints(prob).matrix
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.0 * K.nbytes


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
    conserved, violated = verify_candidate(gen, prob_z), verify_candidate(gen, prob_x)
    assert conserved.residual < 1e-12 and conserved.verdict == "conserved"
    assert violated.residual > 1e-2 and violated.verdict == "violated"


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
    assert np.trace(gam).real == pytest.approx(1.0, abs=1e-9)
    # the reported residual is reproducible from the returned generator, which check reads conserved
    report = verify_candidate(res.generator, prob)
    assert report.residual == res.residual and report.verdict == "conserved"


def assert_face(res, prob):
    """A feasible result read off the commutant face: gamma = Pi / k, of rank k = dim ker M."""
    assert_feasible(res, prob)
    assert (res.stop_reason, res.iterations, res.gap_trace) == ("commutant_face", 0, ())
    projector, dim = _commutant(prob)
    assert res.constraints[5] == dim == np.linalg.matrix_rank(res.generator.gamma, 1e-9) > 0
    assert np.abs(res.generator.gamma - projector / dim).max() < 1e-12
    assert res.generator.hamiltonian.is_zero()


def spy_completions(monkeypatch):
    """Record the arguments of every completion the search tries."""
    completions, complete = [], feasibility._complete_on_face

    def spy(*args):
        completions.append(args)
        return complete(*args)

    monkeypatch.setattr(feasibility, "_complete_on_face", spy)
    return completions


def assert_no_completion(monkeypatch, prob, seed):
    """With _accept refusing every point, the face point included, a search on a
    ring of n0 sites or more tries no completion and runs to MAX_ITER, held at
    two checks; a feasible problem gives no separation either."""
    assert prob.n >= prob.stable_from
    with monkeypatch.context() as patch:
        completions = spy_completions(patch)
        patch.setattr(feasibility, "_accept", lambda x, problem: None)
        patch.setattr(feasibility, "MAX_ITER", 2 * feasibility.CHECK_PERIOD)
        res = search(prob, seed=seed)
    assert (res.status, res.stop_reason, res.iterations) == ("not_found", "max_iter", 50)
    assert len(res.gap_trace) == 2 and res.separation is None and not completions


@pytest.mark.parametrize("mode", ["local", "global"])
def test_search_finds_ising_dissipator(mode, monkeypatch):
    # the X strings span ker M, and their projector conserves; refused on
    # this stable ring, the point is not completed
    prob = ising_problem(mode)
    for seed in (1, 2):
        assert_face(search(prob, seed=seed), prob)
        assert_no_completion(monkeypatch, prob, seed)


def test_search_finds_dephasing(monkeypatch):
    prob = FeasibilityProblem(PauliOperator(1, {"Z": 1.0}), r_gen=1)
    for seed in range(1, 6):
        assert_face(search(prob, seed=seed), prob)
        assert_no_completion(monkeypatch, prob, seed)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_search_finds_weakly_coupled_dephasing(seed, monkeypatch):
    # Z dephasing conserves II + 0.01 ZZ; the face point does too
    prob = FeasibilityProblem(PauliOperator(2, {"II": 1.0, "ZZ": 0.01}), r_gen=2)
    assert_face(search(prob, seed=seed), prob)
    assert_no_completion(monkeypatch, prob, seed)


def test_search_completes_near_ising(monkeypatch):
    # a weakly coupled Ising density: its face point conserves
    a = dict(zip("XYZ", (0.1888, -0.1984, 0.9618)))
    alpha, beta, gamma = 1.079e-4, 0.0313, 0.0413
    terms = {p + q: alpha * a[p] * a[q] for p in a for q in a}
    for p in a:
        terms[p + "I"] = terms["I" + p] = beta * a[p]
    terms["II"] = gamma
    prob = FeasibilityProblem(PauliOperator(2, terms), r_gen=2)
    for seed in (1, 2, 3):
        assert_face(search(prob, seed=seed), prob)
        assert_no_completion(monkeypatch, prob, seed)


def off_ising_terms(a, alpha, beta, gamma, extra):
    """alpha (a.s)(a.s) + beta (a.s I + I a.s) + gamma II, then 0.3 alpha more on `extra`."""
    terms = {p + q: alpha * a[p] * a[q] for p in a for q in a}
    for p in a:
        terms[p + "I"] = terms["I" + p] = beta * a[p]
    terms["II"] = gamma
    terms[extra] += 0.3 * alpha
    return terms


@pytest.mark.parametrize("extra", ["XX", "YY"])
def test_search_separates_near_ising(extra):
    # the near-Ising density above, pushed off the Ising line: its gamma
    # distance to the conserving set stays near 2.5e-4, so the refusal is the
    # search's own hyperplane, found well before MAX_ITER
    a = dict(zip("XYZ", (0.1888, -0.1984, 0.9618)))
    terms = off_ising_terms(a, 1.079e-4, 0.0313, 0.0413, extra)
    res = search(FeasibilityProblem(PauliOperator(2, terms), r_gen=2), seed=1)
    assert (res.status, res.stop_reason) == ("not_found", "separated")
    assert res.iterations <= 1500 and res.separation.margin > 0
    assert res.certificate.verdict == "negative_definite"


def test_search_separates_off_ising_draws():
    # random Ising-type densities plus 0.3 alpha ZZ are refused within four checks
    rng = np.random.default_rng(1)
    for i in range(30):
        a = rng.standard_normal(3)
        a = dict(zip("XYZ", a / np.linalg.norm(a)))
        alpha = 10 ** rng.uniform(-1, 0)
        beta, gamma = rng.uniform(-0.5, 0.5, size=2)
        terms = off_ising_terms(a, alpha, beta, gamma, "ZZ")
        res = search(FeasibilityProblem(PauliOperator(2, terms), r_gen=2), seed=i + 1)
        assert (res.status, res.stop_reason) == ("not_found", "separated"), i
        assert res.iterations <= 100, i


def test_search_separates_weak_zz_at_width_three():
    # XX + 0.01 ZZ is obstructed at r=3 too; the search proves it by its own hyperplane
    prob = FeasibilityProblem(PauliOperator(2, {"XX": 1.0, "ZZ": 0.01}), r_gen=3)
    res = search(prob, seed=2)
    assert (res.status, res.stop_reason) == ("not_found", "separated")
    assert res.iterations <= 100
    assert res.certificate.verdict == "negative_definite"


def test_search_conserves_all_exchange_charges():
    # a problem holds one target, so each one-site charge is searched alone
    for p in "XYZI":
        prob = FeasibilityProblem(PauliOperator(1, {p: 1.0}), r_gen=2, mode="global")
        res = search(prob, seed=1)
        assert_feasible(res, prob)
        assert global_conservation_residual(res.generator, prob.target, prob.n) < 1e-8


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_search_rejects_heisenberg(seed, monkeypatch):
    # the separation is tried first at every check, so no completion runs
    monkeypatch.setattr(feasibility, "_complete_on_face",
                        lambda *args: pytest.fail("a refusal tried the face completion"))
    prob = FeasibilityProblem(PauliOperator(2, HEISENBERG), r_gen=2)
    res = search(prob, seed=seed)
    assert res.status == "not_found"
    # the refusal is proved at a check, not waited out by a stall rule
    assert res.stop_reason == "separated"
    assert res.iterations <= 100
    assert res.separation.margin > 0
    assert res.generator is None
    assert res.affine_distance > 1e-3
    assert res.certificate is not None
    assert res.certificate.verdict == "negative_definite"


def test_search_without_proof_runs_to_max_iter(monkeypatch):
    # MAX_ITER below CHECK_PERIOD: no check runs, so no proof can end the search
    monkeypatch.setattr(feasibility, "MAX_ITER", 10)
    res = search(FeasibilityProblem(PauliOperator(2, HEISENBERG), r_gen=2), seed=1)
    assert (res.status, res.stop_reason, res.iterations) == ("not_found", "max_iter", 10)
    assert res.gap_trace == () and res.separation is None
    assert res.certificate.verdict == "negative_definite"


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_search_rejects_transverse_ising(seed):
    prob = FeasibilityProblem(PauliOperator(2, TRANSVERSE), r_gen=2)
    res = search(prob, seed=seed)
    assert res.status == "not_found"
    assert res.certificate is not None
    assert res.certificate.verdict == "negative_definite"


@pytest.mark.parametrize("size", [1e-13, 1e-8, 1.0, 1e5])
@pytest.mark.parametrize("mode", ["global", "local"])
def test_search_scales_with_the_problem(size, mode):
    # conservation is invariant under a -> s a, and so are the search's
    # verdicts: it reads the target's non-identity part at unit norm.  Below
    # 1e-12 the image of the raw target would fall under the operators'
    # absolute pruning
    for terms in (ISING, HEISENBERG):
        prob = FeasibilityProblem(PauliOperator(2, {s: size * c for s, c in terms.items()}),
                                  r_gen=2, mode=mode)
        body = PauliOperator(2, {s: c for s, c in prob.target.terms.items() if s != "II"})
        assert body.hs_norm() == pytest.approx(1.0, abs=1e-15)
        res = search(prob, seed=1)
        if terms is ISING:
            assert_face(res, prob)
        else:
            assert (res.status, res.stop_reason) == ("not_found", "separated")
            assert res.certificate.verdict == "negative_definite"


def test_search_says_how_it_ended(monkeypatch):
    # every string commutes with the identity, so ker M is everything and the
    # identity densities read their face point, I / (4^r - 1), as the Ising
    # density reads its own; only a point _accept certifies makes a feasible
    # result.  Refused, none is completed on its stable ring and the search
    # runs to MAX_ITER; below n0 a completion ends the search at a check
    problems = [FeasibilityProblem(PauliOperator(1, {"I": 1.0}), r_gen=1),
                FeasibilityProblem(PauliOperator(2, {"II": 1.0}), r_gen=2), ising_problem()]
    for prob, dim in zip(problems, (3, 15, 3)):
        res = search(prob, seed=3)
        assert (res.status, res.stop_reason, res.iterations) == ("feasible", "commutant_face", 0)
        assert res.gap_trace == () and res.constraints[5] == dim
        assert_no_completion(monkeypatch, prob, 3)
    res = search(FeasibilityProblem(parse_operator("ZX - XZ + 2*II"), r_gen=2, n=3), seed=3)
    assert (res.status, res.stop_reason) == ("feasible", "completed_on_face")
    assert res.iterations == res.gap_trace[-1][0] and res.iterations % feasibility.CHECK_PERIOD == 0


# -- the commutant face ----------------------------------------------------


def ring_placement(label, n, k):
    """The string `label` placed at site k of an n-site ring."""
    s = label.ljust(n, "I")
    return s[n - k:] + s[:n - k]


@pytest.mark.parametrize("mode", ["global", "local"])
@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("target", ["Z", "0.61*XX + 0.34*XI + 0.34*IX + 0.05*II", "XX + YY + ZZ",
                                    "XXX + YYY"])
def test_search_commutators_match_dense(target, r, mode, monkeypatch):
    # column s of the search's M is [P_s, A] in Pauli coefficients, for the
    # target's ring sum (global) or each of its placements (local) on
    # min(n, n0) sites, built here from dense matrices; the projector of
    # _commutant is the one onto ker M
    seen, build = [], feasibility._commutators

    def spy(r_gen, ops):
        seen.append(build(r_gen, ops))
        return seen[-1]

    monkeypatch.setattr(feasibility, "_commutators", spy)
    prob = FeasibilityProblem(parse_operator(target), r_gen=r, mode=mode)
    projector, dim = _commutant(prob)
    (rows, M), = seen
    n = min(prob.n, stable_ring_length(r, prob.target.n, mode))
    placements = [sum(c.real * dense_string(ring_placement(s, n, k))
                      for s, c in prob.target.terms.items()) for k in range(n)]
    ops = [sum(placements)] if mode == "global" else placements
    assert M.shape == (len(ops), len(rows), 4 ** r - 1) and len(set(rows)) == len(rows)
    for b, s in enumerate(basis_strings(r)):
        P = dense_string(s.ljust(n, "I"))
        for i, A in enumerate(ops):
            got = sum((M[i, k, b] * dense_string(rows[k]) for k in np.flatnonzero(M[i, :, b])),
                      np.zeros_like(A))
            assert np.abs(got - (P @ A - A @ P)).max() < 1e-12
    R = M.reshape(-1, 4 ** r - 1)
    assert np.abs(projector @ projector - projector).max() < 1e-12
    assert np.abs(projector - projector.T).max() < 1e-15
    assert np.abs(R @ projector).max() < 1e-12
    assert dim == round(np.trace(projector)) == 4 ** r - 1 - np.linalg.matrix_rank(R)


# the battery of the commutant theorem: 14 two-site densities
BATTERY = {
    "ising": "0.61*XX + 0.34*XI + 0.34*IX + 0.05*II",
    "heisenberg": "XX + YY + ZZ",
    "xxz": "XX + YY + 0.5*ZZ",
    "xyz": "XX + 0.5*YY + 0.2*ZZ",
    "transverse": "ZZ + 0.4*XI + 0.4*IX",
    "xx": "XX",
    "xy": "XX + YY",
    "field": "ZI + IZ",
    "weak-zz": "XX + 0.01*ZZ",
    "dephasing": "II + 0.01*ZZ",
    "weak-ising": "1e-8*XX + XI + IX",
    "heavy-identity": "1e5*II + 0.61*XX + 0.34*XI + 0.34*IX",
    "longitudinal": "XX + 0.7*XI + 0.7*IX",
    "dm": "XY - YX",
}


@pytest.mark.parametrize("name", BATTERY)
def test_feasible_exactly_when_the_commutant_is_nonzero(name, monkeypatch):
    # on rings of n0 sites or more a conserving gamma has its range in ker M:
    # the search is feasible exactly when ker M != {0}, with gamma of rank
    # dim ker M, and with ker M = {0} it never tries a completion
    completions = spy_completions(monkeypatch)
    for r in (2, 3):
        for mode in ("global", "local"):
            prob = FeasibilityProblem(parse_operator(BATTERY[name]), r_gen=r, mode=mode)
            res = search(prob, seed=1)
            dim = res.constraints[5]
            assert (res.status == "feasible") == (dim > 0), (r, mode)
            if dim:
                assert_face(res, prob)
            else:
                assert res.stop_reason == "separated" and res.separation.margin > 0
    assert not completions


@pytest.mark.parametrize("target, mode", [
    ("1e-9*XX + XI + IX", "local"), ("1e-8*XX + XI + IX", "local"),
    ("1e-8*XX + XI + IX", "global"), ("1e-7*XX + XI + IX", "global")])
def test_tiny_two_site_part_ends_feasible(target, mode):
    # K's small singular values (about 3 eps) left the face completion short
    # of the slice, and these searches ran to MAX_ITER; the X strings span
    # ker M at every eps, and their projector conserves
    prob = FeasibilityProblem(parse_operator(target), r_gen=2, mode=mode)
    assert_face(search(prob, seed=1), prob)


@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("mode", ["global", "local"])
def test_identity_dominated_target_ends_feasible(r, mode):
    # 1e5 II + Ising: the identity rows dominated K and every completion read
    # violated; the face point has no identity image, so check reads it conserved
    prob = FeasibilityProblem(parse_operator("1e5*II + 0.61*XX + 0.34*XI + 0.34*IX"), r_gen=r,
                              mode=mode)
    assert_face(search(prob, seed=1), prob)


def spy_hyperplanes(monkeypatch):
    """Record (constraints, displacement, y) of every hyperplane the search fits."""
    seen = []
    fit = feasibility._hyperplane

    def spy(cons, rows, v):
        y = fit(cons, rows, v)
        seen.append((cons, rows, v, y))
        return y

    monkeypatch.setattr(feasibility, "_hyperplane", spy)
    return seen


def farkas_margin(cons, y):
    """lambda_min(W) - y^T b, W the gamma part of K^T y, and K^T y."""
    m = round(np.sqrt(cons.dim_gamma))
    u = cons.matrix.T @ y
    return scipy.linalg.eigvalsh(_vector_to_gamma(u[:m * m], m))[0] - y @ cons.rhs, u


@pytest.mark.parametrize("terms, r", [({"XYZ": 1.0, "ZYX": 1.0}, 3),
                                      ({"XXX": 1.0, "YYY": 1.0}, 2)])
def test_search_separates_targets_without_certificate(terms, r, monkeypatch):
    # three-site targets have no obstruction matrix; the refusal is proved
    # by a hyperplane that the search checks before it reports it
    seen = spy_hyperplanes(monkeypatch)
    prob = FeasibilityProblem(PauliOperator(3, terms), r_gen=r, mode="global")
    res = search(prob, seed=1)
    assert (res.status, res.stop_reason, res.certificate) == ("not_found", "separated", None)
    assert res.iterations == 25 and len(seen) == 1
    cons, _, _, y = seen[-1]
    margin, u = farkas_margin(cons, y)
    m2 = cons.dim_gamma
    assert res.separation.margin > 1e-3 * np.linalg.norm(u)
    assert res.separation.margin == pytest.approx(margin, rel=1e-10)
    assert res.separation.y_dot_b == pytest.approx(y @ cons.rhs, rel=1e-12)
    assert res.separation.null_dim == len(y) - np.linalg.matrix_rank(cons.matrix[:, m2:])
    assert np.abs(u[m2:]).max() < 1e-12 * np.linalg.norm(u)
    # the margin holds on the ring at other random (gamma, H) than the search's
    for seed in (2, 3, 4):
        assert _ring_check(prob, cons, y, u, seed)


def short_ring_problem(target, r, n):
    return FeasibilityProblem(parse_operator(target), r_gen=r, n=n)


ZX_XZ = "ZX - XZ + 2*II"
II_XX_XZ = "0.5*II - 0.2339*XX - 0.5401*XZ"


@pytest.mark.parametrize("prob, seed", [
    (short_ring_problem(ZX_XZ, 2, 3), 1),
    (short_ring_problem(II_XX_XZ, 3, 4), 1),
    (short_ring_problem("1.3482*XZ - 0.7132*ZZ - 1.23*II", 2, 3), 1),
    (short_ring_problem(ZX_XZ, 2, 3), 2),
    (short_ring_problem(ZX_XZ, 2, 3), 3),
    (short_ring_problem(II_XX_XZ, 2, 3), 1),
])
def test_feasible_problems_never_separate(prob, seed, monkeypatch):
    # below n0 these conservers have ker M = {0}, so the search iterates and
    # fits a hyperplane at every check until a completion lands.  A
    # conserving generator bounds every margin by zero; a positive one at any
    # check would be a false proof of impossibility
    seen = spy_hyperplanes(monkeypatch)
    res = search(prob, seed=seed)
    assert_feasible(res, prob)
    assert (res.stop_reason, res.separation, res.certificate) == ("completed_on_face", None, None)
    assert res.constraints[5] == 0 and prob.n < prob.stable_from
    assert len(seen) == len(res.gap_trace) >= 1
    assert max(farkas_margin(cons, y)[0] for cons, _, _, y in seen) <= 0.0


def test_short_ring_conserver_is_not_unital():
    # the theorem behind the commutant face needs a unital conserver, which
    # only rings of n0 sites or more force: on 3 sites the generator found
    # for ZX - XZ + 2 II does not kill the identity
    prob = short_ring_problem(ZX_XZ, 2, 3)
    gen = search(prob, seed=1).generator
    ident = PauliOperator(3, {"III": 1.0})
    image = gen.apply(ident, 0) + gen.apply(ident, 1) + gen.apply(ident, 2)
    assert image.hs_norm() > 0.1


def test_corrupted_hyperplane_is_refused(monkeypatch):
    # the ring check reads the image from LindbladGenerator.apply, so a
    # hyperplane that the rows vouch for but the ring does not is refused
    seen = spy_hyperplanes(monkeypatch)
    prob = FeasibilityProblem(PauliOperator(3, {"XXX": 1.0, "YYY": 1.0}), r_gen=2)
    assert search(prob, seed=1).stop_reason == "separated"
    cons, rows, v, y = seen[-1]
    u = cons.matrix.T @ y
    assert _ring_check(prob, cons, y, u, 1)
    assert _separation(prob, cons, rows, v, 1) is not None
    d = int(np.argmax(np.abs(y)))
    # one entry of y moved, with K^T y kept
    bent = y.copy()
    bent[d] *= 1.0 + 1e-6
    assert not _ring_check(prob, cons, bent, u, 1)
    # one gamma entry of the row y leans on moved: the rows no longer match the ring
    j = int(np.argmax(np.abs(cons.matrix[d, :cons.dim_gamma])))
    K = cons.matrix.copy()
    K[d, j] *= 1.0 + 1e-6
    bad = dataclasses.replace(cons, matrix=K)
    assert not _ring_check(prob, bad, y, K.T @ y, 1)
    assert _separation(prob, bad, rows, v, 1) is None


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
    assert_feasible(res, prob)
    # 568 rows factored, of rank 316, in 15 column blocks, fixing 260 gamma
    # directions, from the stable ring of r + w = 5 sites; ker M holds the
    # seven X strings
    assert res.constraints == (568, 316, 15, 260, 5, 7)


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
"""


def test_parse_problem_file():
    prob = parse_problem_file(PROBLEM_TEXT)
    assert prob.r_gen == 2
    assert prob.mode == "global"
    assert prob.n == 8
    # the target is read with its non-identity part at unit norm
    norm = np.linalg.norm([0.61, 0.34, 0.34])
    assert prob.target.coefficient("XX") == pytest.approx(0.61 / norm)
    assert prob.target.coefficient("II") == pytest.approx(0.05 / norm)
    # only a comment-stripped line reading [problem] opens the section
    noted = parse_problem_file("# see the [problem] section below\n" + PROBLEM_TEXT)
    assert noted.target.terms == prob.target.terms
    assert (noted.r_gen, noted.n) == (2, 8)


def test_parse_problem_file_errors():
    with pytest.raises(ValueError):
        parse_problem_file("r = 2\nXX\n")  # no [problem] and no r_gen
    with pytest.raises(ValueError):
        parse_problem_file("r = 2\nXX\n[problem]\nmode = global\n")  # no r_gen
    with pytest.raises(ValueError):
        parse_problem_file("r = 2\nXX\n[problem]\nr_gen = 2\ncolor = red\n")
    with pytest.raises(ValueError):
        parse_problem_file("r = 2\nXX\n[problem]\nbroken line\n")
    with pytest.raises(ValueError, match="r_gen"):
        parse_problem_file("r = 2\nXX\n[problem]\nr_gen = 1\nr_gen = 2\n")
