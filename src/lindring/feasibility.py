"""Search for a conserving local generator as a convex feasibility problem.

Conservation of a fixed density is linear in the generator data: the
Hamiltonian coefficients enter through the commutator and the structure
matrix gamma enters through the dissipator, so for a fixed window width
the conserving generators form an affine subspace.  Requiring gamma to
be a physical dissipator adds the positive semidefinite cone, and the
normalization tr(gamma) = gamma_trace cuts away the dissipatorless
solutions that exist for every density.  A conserving generator with a
genuine dissipative part is therefore a point in the intersection of
an affine set with a compact slice of the PSD cone, and the search runs
alternating projections with Dykstra's correction between the two.

A point found this way is certified independently: the returned
generator is re-checked through the ring residuals, never through the
search state.  Failure to close the gap is reported as not_found with
the final distance to the affine set; it is not a proof that nothing
exists.  The matching impossibility certificate is the negative
definite obstruction matrix, which is attached to not_found results
for two-site targets.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .pauli import PauliOperator, content_lines
from .generators import (
    LindbladGenerator, _is_hermitian, _window_column, all_strings, basis_strings)
from .rings import (
    safe_ring_length,
    assemble_sum,
    canonical_form,
    global_conservation_residual,
    local_conservation_check,
    parse_density_file,
    format_density_file,
)
from .obstruction import (
    DefinitenessReport,
    assemble_C_2site,
    assemble_C_3site,
    certify_definiteness,
)

MAX_ITER = 5000
GAP_TOL = 1e-9
VERIFY_TOL = 1e-8
PSD_TOL = 1e-9
TRACE_TOL = 1e-9
# a gap that stops improving marks a positive distance between the sets
STALL_MIN_ITER = 500
STALL_WINDOW = 250
STALL_RELATIVE = 1e-6
# window rule for the sublinear regime: the projections creep along a
# common face of the cone instead of plateauing outright
SNAPSHOT_PERIOD = 250
SNAPSHOT_MIN_DROP = 0.08
# the exact face completion only pays off when the sets nearly touch
COMPLETION_DISTANCE = 1e-2
# constraint rows packed per pass; packing all r=3 rows in one pass raised
# the peak memory of the build by about 90 MB
_PACK_ROWS = 64


class FeasibilityProblem:
    """Conservation targets plus the shape of the generator to search over.

    `target` is a single Hermitian window operator or a sequence of them
    (all must be conserved at once).  `mode` picks the constraint: local
    demands that the generator kill every placement of every target,
    global only the ring sums.  `gamma_trace` fixes tr(gamma) and must
    be positive; gamma = 0 solves every instance and is not interesting.
    """

    def __init__(self, target, r_gen: int, n: int | None = None,
                 mode: str = "global", gamma_trace: float = 1.0):
        if isinstance(target, PauliOperator):
            targets = (target,)
        else:
            targets = tuple(target)
        if not targets:
            raise ValueError("need at least one target")
        for a in targets:
            if not isinstance(a, PauliOperator):
                raise TypeError("targets must be PauliOperators")
            if not a.is_hermitian(1e-12):
                raise ValueError("targets must be Hermitian")
        # Hermitian means real Pauli coefficients; the rows read real parts only
        targets = tuple(PauliOperator(a.n, {s: c.real for s, c in a.terms.items()})
                        for a in targets)
        if any(a.is_zero() for a in targets):
            raise ValueError("target is zero")
        if r_gen not in (1, 2, 3):
            raise ValueError("generator width must be 1, 2, or 3")
        if mode not in ("local", "global"):
            raise ValueError(f"unknown mode {mode!r}")
        gamma_trace = float(gamma_trace)
        if not 0.0 < gamma_trace < float("inf"):
            raise ValueError("gamma_trace must be positive and finite; "
                             "gamma = 0 is the trivial solution")
        if n is None:
            n = max(safe_ring_length(r_gen, a.n) for a in targets)
        n = int(n)
        if n < max(r_gen, max(a.n for a in targets)):
            raise ValueError("ring shorter than the widest window")
        self.targets = targets
        self.r_gen = int(r_gen)
        self.n = n
        self.mode = mode
        self.gamma_trace = gamma_trace

    @property
    def target(self) -> PauliOperator:
        return self.targets[0]


@dataclass(frozen=True, eq=False)
class AffineConstraints:
    """Real linear system K x = b over the packed (gamma, H) parameters."""

    matrix: np.ndarray
    rhs: np.ndarray
    labels: tuple[str, ...]
    r_gen: int
    dim_gamma: int


@dataclass(frozen=True, eq=False)
class FeasibilityResult:
    status: str  # feasible | not_found
    generator: LindbladGenerator | None
    residual: float | None
    iterations: int
    affine_distance: float
    certificate: DefinitenessReport | None = None
    constraints: tuple[int, int, int] | None = None  # rows, distinct rows, rank of K
    # converged | completed_on_face, or the rule that ended the iteration:
    # plateau | creep | max_iter
    stop_reason: str | None = None


# -- real parametrization of (gamma, H) ---------------------------------------
# layout: [diag(gamma)] [sqrt2 * Re upper] [sqrt2 * Im upper] [H coefficients];
# the sqrt2 makes packing an isometry for the Frobenius norm, so projections
# computed on matrices stay projections on vectors


@functools.cache
def _upper_indices(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the strict upper triangle of an m x m gamma, made once per width."""
    iu, ju = np.triu_indices(m, 1)
    iu.flags.writeable = False
    ju.flags.writeable = False
    return iu, ju


def _gamma_to_vector(gamma: np.ndarray) -> np.ndarray:
    m = gamma.shape[0]
    iu, ju = _upper_indices(m)
    upper = gamma[iu, ju]
    return np.concatenate([
        np.real(np.diag(gamma)),
        np.sqrt(2.0) * upper.real,
        np.sqrt(2.0) * upper.imag,
    ])


def _vector_to_gamma(v: np.ndarray, m: int) -> np.ndarray:
    """Inverse of _gamma_to_vector, over the last axis of v."""
    iu, ju = _upper_indices(m)
    m2 = iu.size
    gamma = np.zeros(v.shape[:-1] + (m, m), dtype=complex)
    gamma[..., np.arange(m), np.arange(m)] = v[..., :m]
    upper = (v[..., m:m + m2] + 1j * v[..., m + m2:m + 2 * m2]) / np.sqrt(2.0)
    gamma[..., iu, ju] = upper
    gamma[..., ju, iu] = upper.conj()
    return gamma


def pack_point(gamma, eta=None) -> np.ndarray:
    """Pack a Hermitian gamma and real Hamiltonian coefficients into x."""
    gamma = np.asarray(gamma, dtype=complex)
    m = gamma.shape[0]
    if gamma.shape != (m, m) or not _is_hermitian(gamma, 1e-10):
        raise ValueError("gamma must be square Hermitian")
    if eta is None:
        eta = np.zeros(m)
    eta = np.asarray(eta, dtype=float)
    if eta.shape != (m,):
        raise ValueError("Hamiltonian coefficients must match the gamma basis")
    return np.concatenate([_gamma_to_vector(gamma), eta])


def unpack_point(r_gen: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    m = len(basis_strings(r_gen))
    x = np.asarray(x, dtype=float)
    if x.shape != (m * m + m,):
        raise ValueError(f"point must have {m * m + m} entries for r={r_gen}")
    return _vector_to_gamma(x[:m * m], m), x[m * m:]


def generator_from_point(r_gen: int, x: np.ndarray) -> LindbladGenerator:
    gamma, eta = unpack_point(r_gen, x)
    labels = basis_strings(r_gen)
    ham = PauliOperator(r_gen, {s: complex(e) for s, e in zip(labels, eta)})
    return LindbladGenerator(r_gen, hamiltonian=ham, gamma=gamma)


# -- constraint rows -----------------------------------------------------------


def _class_representative(s: str) -> str:
    return min(s[i:] + s[:i] for i in range(len(s)))


def _image_terms(r: int, A: PauliOperator, reduce_rows: bool):
    """Images of A under unit generator parts on window sites 0..r-1, per row key.

    A ring string u reaches the strings piece + u[r:] through the window
    terms of its window piece u[:r].  Returns the row keys and complex
    arrays G, H with G[row, j, k] the image coefficient of unit gamma_jk
    and H[row, j] that of unit Hamiltonian string j.  With reduce_rows
    the keys are translation class representatives and a whole class
    piles onto one row.  Rows follow key insertion order; each entry sums
    its terms in (string of A, term) order.
    """
    strings = all_strings(r)
    pos = {t: i for i, t in enumerate(strings)}
    m = len(strings) - 1
    ids: dict[str, int] = {}
    columns: dict[int, tuple] = {}
    terms = []
    for u, coeff in A.terms.items():
        keys = [piece + u[r:] for piece in strings]
        if reduce_rows:
            keys = [_class_representative(key) for key in keys]
        key_ids = np.array([ids.setdefault(key, len(ids)) for key in keys])
        b = pos[u[:r]]
        if b not in columns:
            columns[b] = _window_column(r, b)
        terms.append((coeff, key_ids, columns[b]))

    G = np.zeros((len(ids), m, m), dtype=complex)
    H = np.zeros((len(ids), m), dtype=complex)
    cols = np.arange(m)
    j, k = np.indices((m, m))
    for coeff, key_ids, (rows, vals, h_rows, h_vals) in terms:
        g_row = key_ids[rows]
        for t in range(3):
            G[g_row[t], j, k] += coeff * vals[t]
        # basis string j is window string j + 1
        for half in h_vals[:, 1:]:
            H[key_ids[h_rows[1:]], cols] += coeff * half
    return list(ids), G, H


def _constraint_block(r: int, A: PauliOperator, reduce_rows: bool):
    """Real rows of the image of A, one per key, and the keys.

    Columns follow the packed (gamma, H) layout; with G_jk the image of
    unit gamma_jk, the slot sqrt2 Re gamma_jk (j < k) reads
    Re (G_jk + G_kj) / sqrt2 and the slot sqrt2 Im gamma_jk reads
    Re i (G_jk - G_kj) / sqrt2.  A Hermitian gamma and real Hamiltonian
    coefficients map the Hermitian A to a Hermitian image, whose Pauli
    coefficients are real, so the imaginary parts carry no rows.
    """
    keys, G, H = _image_terms(r, A, reduce_rows)
    m = H.shape[1]
    iu, ju = _upper_indices(m)
    inv = 1.0 / np.sqrt(2.0)
    block = np.zeros((len(keys), m * m + m))
    for c in range(0, len(keys), _PACK_ROWS):
        g, h = G[c:c + _PACK_ROWS], H[c:c + _PACK_ROWS]
        up_re, lo_re = g.real[:, iu, ju] * inv, g.real[:, ju, iu] * inv
        up_im, lo_im = g.imag[:, iu, ju] * inv, g.imag[:, ju, iu] * inv
        block[c:c + len(g)] = np.concatenate(
            [np.diagonal(g.real, 0, 1, 2), up_re + lo_re, lo_im - up_im, h.real], axis=1)
    return block, keys


def build_affine_constraints(problem: FeasibilityProblem) -> AffineConstraints:
    """Linear rows that a conserving (gamma, H) must satisfy, plus the trace row.

    The window sits on sites 0..r-1 in both modes.  Global mode piles the
    image of each target's ring sum onto translation classes of ring
    strings and scales by n: the ring sum is translation invariant, so the
    class sums of its image under all n placements are n times those
    under one.  Local mode keeps one row per placement of each target and
    per ring string.  Each row is the real part of an image coefficient.
    """
    r, n = problem.r_gen, problem.n
    m = len(basis_strings(r))
    dim_gamma = m * m
    if problem.mode == "global":
        blocks = [(f"target{t}", assemble_sum(a, n), n) for t, a in enumerate(problem.targets)]
    else:
        blocks = [(f"target{t}@{k}", a.embed(n, k), 1)
                  for t, a in enumerate(problem.targets) for k in range(n)]
    rows = []
    labels = []
    for prefix, A, weight in blocks:
        block, keys = _constraint_block(r, A, problem.mode == "global")
        block *= weight
        rows.append(block)
        labels.extend(f"{prefix}:{s}" for s in keys)

    trace_row = np.zeros((1, dim_gamma + m))
    trace_row[0, :m] = 1.0
    rows.append(trace_row)
    labels.append("trace")
    matrix = np.vstack(rows)
    rhs = np.zeros(matrix.shape[0])
    rhs[-1] = problem.gamma_trace
    return AffineConstraints(matrix=matrix, rhs=rhs, labels=tuple(labels),
                             r_gen=r, dim_gamma=dim_gamma)


def _distinct_rows(cons: AffineConstraints) -> AffineConstraints:
    """The nonzero rows of [K | b] once each, scaled by sqrt(multiplicity), unlabelled.

    That keeps K^T K and K^T b: the least-squares step, K^+ b and |K x - b|
    stay the same maps.  Only byte-identical rows merge, with -0.0 read as 0.0.
    """
    K, b = cons.matrix, cons.rhs
    seen: dict[bytes, list[int]] = {}  # row bytes -> [first index, multiplicity]
    for i in np.flatnonzero(K.any(axis=1) | (b != 0)):
        seen.setdefault((np.append(K[i], b[i]) + 0.0).tobytes(), [i, 0])[1] += 1
    index, count = np.array(list(seen.values())).T
    w = np.sqrt(count)
    return AffineConstraints(K[index] * w[:, None], b[index] * w, (), cons.r_gen, cons.dim_gamma)


def _factor_rows(cons: AffineConstraints):
    """One SVD of K: the affine projection, the least-squares point and the fixed gammas.

    With Vt an orthonormal basis of the row space and x0 = K^+ b, the map
    x - Vt^T Vt x + x0 is the orthogonal projection onto the least-squares
    set of K x = b, which is the affine set whenever the rows are
    consistent.  A packed gamma direction w is fixed by the rows exactly
    when (w, 0) lies in their span; with N a basis of the null space of
    the Hamiltonian columns of Vt, B = Vt_gamma^T N is an orthonormal
    basis of those directions, the trace among them.  B is far thinner
    than the conserving span, so every gamma projection goes through it.
    Returns (project, x0, B), with the rank of K as project.rank.
    """
    U, sv, Vt = np.linalg.svd(cons.matrix, full_matrices=False)
    keep = sv > sv[0] * 1e-13
    Vt = Vt[keep]
    x0 = Vt.T @ ((U[:, keep].T @ cons.rhs) / sv[keep])
    B = Vt[:, :cons.dim_gamma].T @ scipy.linalg.null_space(Vt[:, cons.dim_gamma:].T)

    def project(x: np.ndarray) -> np.ndarray:
        return x - Vt.T @ (Vt @ x) + x0

    project.rank = len(Vt)
    return project, x0, B


# -- cone slice projection -----------------------------------------------------


def _project_simplex(lam: np.ndarray, tau: float) -> np.ndarray:
    """Euclidean projection of eigenvalues onto {lam >= 0, sum lam = tau}."""
    u = np.sort(lam)[::-1]
    css = np.cumsum(u) - tau
    ks = np.arange(1, u.size + 1)
    mask = u - css / ks > 0
    k = int(ks[mask][-1])
    theta = css[k - 1] / k
    return np.maximum(lam - theta, 0.0)


def _project_cone(x: np.ndarray, m: int, tau: float) -> np.ndarray:
    """Project the gamma block onto {PSD, fixed trace}; H passes through."""
    out = x.copy()
    gamma = _vector_to_gamma(x[:m * m], m)
    lam, V = np.linalg.eigh(gamma)
    lam = _project_simplex(lam, tau)
    out[:m * m] = _gamma_to_vector((V * lam) @ V.conj().T)
    return out


# -- search and verification ---------------------------------------------------


def verify_candidate(gen: LindbladGenerator, problem: FeasibilityProblem) -> float:
    """Worst conservation residual of the candidate, straight off the ring."""
    worst = 0.0
    for a in problem.targets:
        if problem.mode == "global":
            res = global_conservation_residual(gen, a, problem.n)
        else:
            _, res, _ = local_conservation_check(gen, a, problem.n)
        worst = max(worst, res)
    return worst


def _obstruction_certificate(problem: FeasibilityProblem) -> DefinitenessReport | None:
    if len(problem.targets) != 1 or problem.r_gen not in (2, 3):
        return None
    a = problem.targets[0]
    if a.n != 2:
        return None
    try:
        params = canonical_form(a)
        assemble = assemble_C_2site if problem.r_gen == 2 else assemble_C_3site
        return certify_definiteness(assemble(params).C)
    except (ValueError, ArithmeticError):
        return None


def _accept(gen: LindbladGenerator, problem: FeasibilityProblem, iterations: int,
            affine_distance: float, constraints: tuple, stop_reason: str) -> FeasibilityResult | None:
    """Independent certification of a candidate; None when it does not pass.

    Conservation is invariant under gamma -> s gamma and under a -> s a, so
    the bounds scale: the residual with the trace and the largest target,
    the PSD and trace errors with the trace.
    """
    residual = verify_candidate(gen, problem)
    eigs = np.linalg.eigvalsh(gen.gamma)
    trace_err = abs(float(np.trace(gen.gamma).real) - problem.gamma_trace)
    scale = max(1.0, problem.gamma_trace)
    size = max(1.0, max(a.hs_norm() for a in problem.targets))
    if (residual < VERIFY_TOL * scale * size and eigs[0] > -PSD_TOL * scale
            and trace_err < TRACE_TOL * scale):
        return FeasibilityResult(
            status="feasible", generator=gen, residual=float(residual),
            iterations=iterations, affine_distance=affine_distance, constraints=constraints,
            stop_reason=stop_reason)
    return None


def _gauss_newton_system(Bk: np.ndarray, c: np.ndarray, U: np.ndarray):
    """Residuals Re tr(B_k U U^dag) - c_k and their Jacobian over (Re U, Im U).

    The packing is an isometry, so the residual along column k of B is
    Re tr(B_k U U^dag) with B_k its Hermitian matrix; its derivative along
    dU is 2 Re tr(U^dag B_k dU), which reads 2 Re (B_k U)_ab for Re dU_ab
    and 2 Im (B_k U)_ab for Im dU_ab.
    """
    BU = Bk @ U
    resid = np.einsum("kab,ab->k", BU, U.conj()).real - c
    flat = BU.reshape(len(Bk), -1)
    return resid, 2.0 * np.concatenate([flat.real, flat.imag], axis=1)


def _complete_on_face(problem: FeasibilityProblem, cons: AffineConstraints,
                      x0: np.ndarray, B: np.ndarray, warm_x: np.ndarray) -> np.ndarray | None:
    """Exact completion once the projections have nearly met.

    Near a common face of the cone the outer loop closes the gap only
    sublinearly.  Project the iterate onto the conserving span g0 + B^perp,
    with g0 the gamma part of x0, seed a thin factor U (gamma = U U^dag)
    from its top eigenpairs and drive the components of U U^dag - g0 along
    B to zero by Gauss-Newton, which converges quadratically even on a
    face with no relative interior.  U U^dag is PSD by construction, and
    the trace is one of the components, so U = 0 is no root.  Returns a
    packed point or None.
    """
    m = len(basis_strings(problem.r_gen))
    tau = problem.gamma_trace
    K, b = cons.matrix, cons.rhs
    if np.linalg.norm(K @ x0 - b) > 1e-9 * max(1.0, tau) * max(1.0, np.abs(K).max()):
        return None  # every conserving gamma is traceless
    g0 = x0[:m * m]
    v = warm_x[:m * m]
    lam, V = np.linalg.eigh(_vector_to_gamma(v - B @ (B.T @ (v - g0)), m))
    if lam[-1] <= 0.0:
        return None
    Bk, c = _vector_to_gamma(B.T, m), B.T @ g0
    r0 = int((lam > 1e-2 * lam[-1]).sum())
    for rank in sorted({r0, min(r0 + 1, m), min(r0 + 3, m)}):
        U = V[:, -rank:] * np.sqrt(np.clip(lam[-rank:], 1e-12, None))
        for _ in range(60):
            resid, J = _gauss_newton_system(Bk, c, U)
            if np.linalg.norm(resid) < 1e-13 * max(1.0, tau):
                gpacked = _gamma_to_vector(U @ U.conj().T) * (tau / np.linalg.norm(U) ** 2)
                eta, *_ = np.linalg.lstsq(K[:, m * m:], b - K[:, :m * m] @ gpacked, rcond=None)
                return np.concatenate([gpacked, eta])
            delta, *_ = np.linalg.lstsq(J, -resid, rcond=None)
            U = U + (delta[:U.size] + 1j * delta[U.size:]).reshape(m, rank)
    return None


def search(problem: FeasibilityProblem, max_iter: int = MAX_ITER,
           tol: float = GAP_TOL, seed: int = 0) -> FeasibilityResult:
    """Dykstra alternating projections between the affine rows and the cone slice.

    Runs until the two projections agree to `tol` and the affine rows are
    satisfied tightly enough for the independent verifier, or until the
    gap stops closing (a plateau marks a positive distance between the
    sets, slow creep marks a shared tangent face), or to max_iter.  When
    the sets nearly touch an exact completion on the conserving span
    finishes the job; every returned point is re-certified from scratch.
    """
    cons = _distinct_rows(full := build_affine_constraints(problem))
    project_affine, x0, B = _factor_rows(cons)
    K, b = cons.matrix, cons.rhs
    m = len(basis_strings(problem.r_gen))
    tau = problem.gamma_trace

    rng = np.random.default_rng(seed)
    x = rng.standard_normal(K.shape[1]) * (tau / m)
    x = _project_cone(x, m, tau)
    p = np.zeros_like(x)
    q = np.zeros_like(x)
    stop_reason = "max_iter"
    iterations = 0
    best_gap = np.inf
    since_best = 0
    snapshot = np.inf
    for iterations in range(1, max_iter + 1):
        y = project_affine(x + p)
        p = x + p - y
        w = y + q
        z = _project_cone(w, m, tau)
        q = w - z
        x = z
        gap = float(np.linalg.norm(z - y))
        if gap < tol and np.linalg.norm(K @ z - b) < 0.5 * VERIFY_TOL:
            stop_reason = "converged"
            break
        if gap < best_gap * (1.0 - STALL_RELATIVE):
            best_gap = gap
            since_best = 0
        else:
            since_best += 1
            if iterations >= STALL_MIN_ITER and since_best >= STALL_WINDOW:
                stop_reason = "plateau"
                break
        if iterations % SNAPSHOT_PERIOD == 0:
            if iterations >= STALL_MIN_ITER and gap > snapshot * (1.0 - SNAPSHOT_MIN_DROP):
                stop_reason = "creep"
                break
            snapshot = gap

    affine_distance = float(np.linalg.norm(x - project_affine(x)))
    shape = (len(full.rhs), len(b), project_affine.rank)
    if stop_reason == "converged":
        got = _accept(generator_from_point(problem.r_gen, x),
                      problem, iterations, affine_distance, shape, stop_reason)
        if got is not None:
            return got
    if affine_distance < COMPLETION_DISTANCE * max(1.0, tau):
        cand = _complete_on_face(problem, cons, x0, B, x)
        if cand is not None:
            dist = float(np.linalg.norm(cand - project_affine(cand)))
            got = _accept(generator_from_point(problem.r_gen, cand),
                          problem, iterations, dist, shape, "completed_on_face")
            if got is not None:
                return got
    return FeasibilityResult(
        status="not_found", generator=None, residual=None,
        iterations=iterations, affine_distance=affine_distance,
        certificate=_obstruction_certificate(problem), constraints=shape,
        stop_reason=stop_reason)


# -- problem files -------------------------------------------------------------


def _split_problem_file(text: str) -> tuple[str, str] | None:
    """Density part and [problem] part of a file; None when it has no section.

    The section starts at the first line that reads [problem] once its
    comment is stripped, so a comment that mentions it does not count.
    """
    for lineno, _, line in content_lines(text):
        if line == "[problem]":
            lines = text.splitlines(keepends=True)
            return "".join(lines[:lineno - 1]), "".join(lines[lineno:])
    return None


def parse_problem_file(text: str) -> FeasibilityProblem:
    """Read a density (r=<int> header plus operator lines) and a [problem] section."""
    parts = _split_problem_file(text)
    if parts is None:
        raise ValueError("missing [problem] section")
    head, tail = parts
    target = parse_density_file(head)
    opts: dict[str, str] = {}
    for _, raw, line in content_lines(tail):
        if "=" not in line:
            raise ValueError(f"bad problem line: {raw!r}")
        key, val = (t.strip() for t in line.split("=", 1))
        opts[key] = val
    unknown = set(opts) - {"r_gen", "n", "mode", "gamma_trace"}
    if unknown:
        raise ValueError(f"unknown problem keys: {sorted(unknown)}")
    if "r_gen" not in opts:
        raise ValueError("problem section must set r_gen")
    return FeasibilityProblem(
        target,
        r_gen=int(opts["r_gen"]),
        n=int(opts["n"]) if "n" in opts else None,
        mode=opts.get("mode", "global"),
        gamma_trace=float(opts.get("gamma_trace", 1.0)),
    )


def format_problem_file(problem: FeasibilityProblem) -> str:
    if len(problem.targets) != 1:
        raise ValueError("problem files hold a single target")
    return (
        format_density_file(problem.targets[0])
        + "[problem]\n"
        + f"r_gen = {problem.r_gen}\n"
        + f"n = {problem.n}\n"
        + f"mode = {problem.mode}\n"
        + f"gamma_trace = {problem.gamma_trace!r}\n"
    )
