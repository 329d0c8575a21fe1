"""Search for a conserving local generator as a convex feasibility problem.

Conservation of a fixed density is linear in the generator data: the
Hamiltonian coefficients enter through the commutator and the structure
matrix gamma enters through the dissipator, so for a fixed window width
the conserving generators form an affine subspace.  Requiring gamma to
be a physical dissipator adds the positive semidefinite cone, and the
normalization tr(gamma) = 1 cuts away the dissipatorless solutions that
exist for every density.  A conserving generator with a genuine
dissipative part is therefore a point in the intersection of an affine
set with a compact slice of the PSD cone, and the search looks for it by
accelerated projected gradient on gamma alone.  Conservation does not
see scale: (H, gamma) conserves a exactly when s (H, gamma) conserves
t a, so the search reads the target with its non-identity part, the part
check's scale reads, at unit Hilbert-Schmidt norm.

The search stops at its first proof.  A feasible result has one judge,
the one `check` uses: the generator of the point the face completion
produces must read conserved under rings.check_conservation on the
problem's ring, with gamma passing validate_psd at unit trace; the
search state has no say.  A refusal is proved by a hyperplane that separates the
rows from the cone slice, a conic Farkas certificate read off the
gradient B B^T (gamma - g0) and confirmed by a Cholesky factorization and on
the ring image of LindbladGenerator.apply.  A search that finds neither
proof by MAX_ITER reports not_found without one.  The paper's
impossibility certificate, the negative definite obstruction matrix, is
attached to not_found results for two-site targets.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .pauli import PauliOperator, sections
from .generators import (LindbladGenerator, _class_representative, _gamma_to_vector, _image_terms,
                         _is_hermitian, _vector_to_gamma, basis_strings, validate_psd)
from .rings import (ConservationReport, assemble_sum, canonical_form, check_conservation,
                    parse_density_file, safe_ring_length, stable_ring_length)
from .obstruction import (
    DefinitenessReport,
    _column_blocks,
    _factors,
    assemble_C_2site,
    assemble_C_3site,
    certify_definiteness,
)

MAX_ITER = 5000
TRACE_TOL = 1e-9
# iterations between two looks for a proof
CHECK_PERIOD = 25
# a separating margin counts above this share of |K^T y|
SEPARATION_TOL = 1e-6


class FeasibilityProblem:
    """A conservation target plus the shape of the generator to search over.

    `target` is a Hermitian window operator, its non-identity part kept at
    unit Hilbert-Schmidt norm (all of it for a multiple of the identity).
    `mode` picks the constraint: local demands that the generator kill
    every placement of the target, global only the ring sum.
    """

    def __init__(self, target: PauliOperator, r_gen: int, n: int | None = None,
                 mode: str = "global"):
        if not isinstance(target, PauliOperator):
            raise TypeError("target must be a PauliOperator")
        if target.is_zero():
            raise ValueError("target is zero")
        body = PauliOperator._unchecked(target.n, {**target.terms, "I" * target.n: 0})
        target = target * (1.0 / (target if body.is_zero() else body).hs_norm())
        if not target.is_hermitian(1e-12):
            raise ValueError("target must be Hermitian")
        # Hermitian means real Pauli coefficients; the rows read real parts only
        target = PauliOperator(target.n, {s: c.real for s, c in target.terms.items()})
        if r_gen not in (1, 2, 3):
            raise ValueError("generator width must be 1, 2, or 3")
        if mode not in ("local", "global"):
            raise ValueError(f"unknown mode {mode!r}")
        n = int(safe_ring_length(r_gen, target.n) if n is None else n)
        if n < max(r_gen, target.n):
            raise ValueError("ring shorter than the widest window")
        self.target = target
        self.r_gen = int(r_gen)
        self.n = n
        self.mode = mode


@dataclass(frozen=True, eq=False)
class AffineConstraints:
    """Real linear system K x = b over the packed (gamma, H) parameters."""

    matrix: np.ndarray
    rhs: np.ndarray
    labels: tuple[str, ...]
    dim_gamma: int


@dataclass(frozen=True)
class Separation:
    """A checked separating hyperplane y: margin = lambda_min(W) - y^T b > 0.

    W is the Hermitian matrix of the gamma part of K^T y, and null_dim the
    dimension of the y with no Hamiltonian part, K_H^T y = 0.
    """

    margin: float
    lambda_min: float
    y_dot_b: float
    null_dim: int


@dataclass(frozen=True, eq=False)
class FeasibilityResult:
    status: str  # feasible | not_found
    generator: LindbladGenerator | None
    residual: float | None
    iterations: int
    affine_distance: float  # |B^T (gamma - g0)|: 0 exactly when gamma completes to a solution
    certificate: DefinitenessReport | None = None
    # rows factored, rank of K, column blocks, fixed gamma directions (columns of B), stable_from
    constraints: tuple[int, int, int, int, int] | None = None
    # the proof that ended the search (completed_on_face | separated) or max_iter
    stop_reason: str | None = None
    separation: Separation | None = None
    gap_trace: tuple[tuple[int, float], ...] = ()  # (iteration, affine_distance) at each check


# -- packed points: x = [_gamma_to_vector(gamma)] [H coefficients] ---------------


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


def _blocks(problem: FeasibilityProblem) -> list[tuple[str, PauliOperator]]:
    """(label prefix, ring operator) of each block of rows, on min(n, n0) sites."""
    a = problem.target
    n = min(problem.n, stable_ring_length(problem.r_gen, a.n, problem.mode))
    if problem.mode == "global":
        return [("target0", assemble_sum(a, n))]
    return [(f"target0@{k}", a.embed(n, k)) for k in range(n)]


def build_affine_constraints(problem: FeasibilityProblem) -> AffineConstraints:
    """Distinct linear rows that a conserving (gamma, H) must satisfy, plus the trace row.

    The window sits on sites 0..r-1 in both modes.  Global mode piles the
    image of the target's ring sum onto translation classes of ring
    strings: the ring sum is translation invariant, so the class sums of
    its image under all placements of the generator are a multiple of
    those under one.  Local mode keeps one row per placement of the
    target and per ring string.  Each row is the image coefficient as a
    functional of (gamma, H) in real coordinates; the packing's sqrt2 on
    Re gamma_jk and Im gamma_jk (j < k) divides those columns by sqrt2.
    Rows are keyed on their nonzero entries: a zero row is left out and of
    copies only the first is kept, under its own label.  A copy adds
    nothing to the solution set.  K is written once, at its final size.

    The ring has min(n, n0) sites, n0 = stable_ring_length(r, w, mode)
    for a width-w target: each n >= n0 has the same row space, so the
    same conserving set and `separated` certificates.  A window W and a
    placement P overlap within an arc of r + w - 1 sites or lie apart;
    apart, L_W(P) = L_W(1) P whatever the distance.  Local: from n = r + w
    on, no placement meets W at both ends, the overlapping ones give the
    rows of the infinite line and the rest repeat one another.  Global: a
    class row reads one string v of the sum over all pairs (W, P).  From
    n = 2r + w - 1 on, the gap around an arc of r + w - 1 sites holds a
    window, so the pairs that make v are those of the infinite line, and
    a longer ring only widens gaps between clusters apart, whose rows stay
    in the span (tested up to the safe length).  Below n0 the rows and the
    verdict belong to that ring alone.
    """
    r = problem.r_gen
    m = len(basis_strings(r))
    dim_gamma = m * m
    distinct: dict[bytes, tuple[str, np.ndarray, np.ndarray]] = {}
    for prefix, A in _blocks(problem):
        keys, row, col, val = _image_terms(r, A, problem.mode == "global")
        val = val * np.where((m <= col) & (col < dim_gamma), 1.0 / np.sqrt(2.0), 1.0)
        starts = np.flatnonzero(np.diff(row, prepend=-1))
        for i, c, v in zip(row[starts], np.split(col, starts[1:]), np.split(val, starts[1:])):
            distinct.setdefault(c.tobytes() + v.tobytes(), (f"{prefix}:{keys[i]}", c, v))

    matrix = np.zeros((len(distinct) + 1, dim_gamma + m))
    for i, (_, c, v) in enumerate(distinct.values()):
        matrix[i, c] = v
    matrix[-1, :m] = 1.0
    rhs = np.append(np.zeros(len(distinct)), 1.0)
    labels = tuple(label for label, _, _ in distinct.values()) + ("trace",)
    return AffineConstraints(matrix=matrix, rhs=rhs, labels=labels, dim_gamma=dim_gamma)


@dataclass(frozen=True, eq=False)
class _RowFactor:
    x0: np.ndarray  # K^+ b
    rank: int  # rank of K
    blocks: int  # column blocks factored
    # per block with fixed gamma directions: its gamma columns, an orthonormal basis B_j of
    # those directions there, its rows and D_j with K^T (D_j c) = (B_j c, 0) on the block
    pieces: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]
    fixed: int  # fixed gamma directions: the width of B
    m: int  # gamma is m x m

    @functools.cached_property
    def face(self) -> tuple[np.ndarray, np.ndarray]:
        """The Hermitian matrices B_k of the columns of B and c = B^T g0, made on first use."""
        parts = [np.zeros((Bj.shape[1], self.m * self.m)) for _, Bj, _, _ in self.pieces]
        for part, (cols, Bj, _, _) in zip(parts, self.pieces):
            part[:, cols] = Bj.T
        return _vector_to_gamma(np.concatenate(parts), self.m), _fixed_coordinates(self, self.x0)


def _fixed_coordinates(rows: _RowFactor, g: np.ndarray) -> np.ndarray:
    """B^T g for a packed gamma g (or point), piece by piece."""
    return np.concatenate([Bj.T @ g[cols] for cols, Bj, _, _ in rows.pieces])


def _fixed_part(rows: _RowFactor, g: np.ndarray) -> np.ndarray:
    """B B^T g for a packed gamma g, piece by piece."""
    out = np.zeros_like(g)
    for cols, Bj, _, _ in rows.pieces:
        out[cols] = Bj @ (Bj.T @ g[cols])
    return out


def _factor_rows(cons: AffineConstraints) -> _RowFactor:
    """One SVD per block of K: the rank, the least-squares point and the fixed gammas, per block.

    No row links two column blocks of K (the trace row joins every gamma_jj
    column into one), so the SVDs of the blocks, cut at 1e-13 of the
    largest singular value over all blocks, make a thin SVD of K, and
    x0 = K^+ b.  A packed gamma direction w is fixed by the rows exactly
    when (w, 0) lies in their span.  The Hamiltonian part H of Vt is block
    diagonal too: with N_j the null space of a block's part, B_j =
    Vt_gamma,j^T N_j is an orthonormal basis of the fixed directions on its
    gamma columns, the trace among them.  B is far thinner than the
    conserving span, so every gamma projection goes through the pieces.
    N is cut at eps max(H.shape) times the largest singular value of H, as
    matrix_rank cuts: Vt is orthonormal to rounding however small the kept
    singular values of K, so the H part of a fixed direction (the trace
    among them) stays below the cut whatever K's condition number.
    """
    K, b, g = cons.matrix, cons.rhs, cons.dim_gamma
    blocks = _column_blocks(K != 0)
    svds = [np.linalg.svd(K[np.ix_(rows, cols)], full_matrices=False) for rows, cols in blocks]
    top = max(s[0] for _, s, _ in svds)
    kept = [int((s > top * 1e-13).sum()) for _, s, _ in svds]
    svds = [(u[:, :k], s[:k], v[:k]) for (u, s, v), k in zip(svds, kept)]
    sv = np.concatenate([s for _, s, _ in svds])
    hams = [np.linalg.svd(v[:, cols >= g].T) for (_, cols), (_, _, v) in zip(blocks, svds)]
    cut = np.finfo(float).eps * max(K.shape[1] - g, len(sv))
    cut *= max((s[0] for _, s, _ in hams if len(s)), default=0.0)
    x0, pieces = np.zeros(K.shape[1]), []
    for (rows, cols), (u, s, v), (_, hs, hv) in zip(blocks, svds, hams):
        x0[cols] = v.T @ ((u.T @ b[rows]) / s)
        if (N := hv[np.count_nonzero(hs > cut):].T).shape[1]:
            pieces.append((cols[cols < g], v[:, cols < g].T @ N, rows, (u / s) @ N))
    fixed = sum(Bj.shape[1] for _, Bj, _, _ in pieces)
    return _RowFactor(x0, len(sv), len(blocks), pieces, fixed, math.isqrt(g))


# -- cone slice projection -----------------------------------------------------


def _project_simplex(lam: np.ndarray) -> np.ndarray:
    """Euclidean projection of eigenvalues onto {lam >= 0, sum lam = 1}."""
    u = np.sort(lam)[::-1]
    css = np.cumsum(u) - 1.0
    ks = np.arange(1, u.size + 1)
    mask = u - css / ks > 0
    k = int(ks[mask][-1])
    theta = css[k - 1] / k
    return np.maximum(lam - theta, 0.0)


def _project_cone(g: np.ndarray, m: int) -> np.ndarray:
    """Project a packed gamma onto {PSD, trace 1}."""
    lam, V = np.linalg.eigh(_vector_to_gamma(g, m))
    return _gamma_to_vector((V * _project_simplex(lam)) @ V.conj().T)


# -- search and verification ---------------------------------------------------


def verify_candidate(gen: LindbladGenerator, problem: FeasibilityProblem) -> ConservationReport:
    """The conservation check of the candidate, straight off the problem's ring."""
    return check_conservation(gen, problem.target, problem.mode, problem.n)


def _obstruction_certificate(problem: FeasibilityProblem) -> DefinitenessReport | None:
    if problem.r_gen not in (2, 3) or problem.target.n != 2:
        return None
    assemble = assemble_C_2site if problem.r_gen == 2 else assemble_C_3site
    try:
        mat = assemble(canonical_form(problem.target))
    except ValueError:  # no two-site part; a certificate that fails its check raises on
        return None
    return certify_definiteness(mat.C, blocks=mat.blocks, params=mat.params)


def _accept(x: np.ndarray, problem: FeasibilityProblem) -> tuple[LindbladGenerator, float] | None:
    """(generator, residual) of a point check reads conserved, gamma PSD of trace 1; else None."""
    gen = generator_from_point(problem.r_gen, x)
    report = verify_candidate(gen, problem)
    try:
        validate_psd(gen)
    except ValueError:
        return None
    ok = report.verdict == "conserved" and abs(np.trace(gen.gamma).real - 1.0) < TRACE_TOL
    return (gen, float(report.residual)) if ok else None


def _hyperplane(cons: AffineConstraints, rows: _RowFactor, v: np.ndarray) -> np.ndarray:
    """y with K^T y the best fit to v among the K^T y with K_H^T y = 0, which are (B c, 0)."""
    y = np.zeros(len(cons.rhs))
    for cols, Bj, block_rows, Dj in rows.pieces:
        y[block_rows] = Dj @ (Bj.T @ v[cols])
    return y


def _ring_check(problem: FeasibilityProblem, cons: AffineConstraints, y: np.ndarray,
                u: np.ndarray, seed: int) -> bool:
    """Whether y, read on the ring image of a random (gamma, H), is <W, gamma>, W from u = K^T y.

    The image comes from LindbladGenerator.apply on the rows' ring, not
    from the rows; each row reads its label's class sum (global) or
    string coefficient (local).
    """
    x = np.random.default_rng(seed).standard_normal(len(u))
    gen = generator_from_point(problem.r_gen, x)
    values = {"trace": float(np.trace(gen.gamma).real)}
    for prefix, A in _blocks(problem):
        for s, c in gen.apply(A).terms.items():
            key = f"{prefix}:{_class_representative(s) if problem.mode == 'global' else s}"
            values[key] = values.get(key, 0.0) + c.real
    terms = y * np.array([values.get(k, 0.0) for k in cons.labels])
    want = float(u[:cons.dim_gamma] @ x[:cons.dim_gamma])
    return abs(terms.sum() - want) <= 1e-9 * (np.abs(terms).sum() + abs(want))


def _separation(problem: FeasibilityProblem, cons: AffineConstraints, rows: _RowFactor,
                v: np.ndarray, seed: int) -> Separation | None:
    """A hyperplane between the rows and the cone slice from v = gamma - g0, or None.

    With gamma* the minimizer of search's f and d = B^T (gamma* - g0),
    <B d, gamma> >= |d|^2 + d.B^T g0 on the slice (optimality) but equals
    d.B^T g0 on every conserving gamma: B d, read off v by _hyperplane,
    separates when d != 0.  For K_H^T y = 0 and conserving
    (gamma, H), y^T b = <W, gamma> >= lambda_min(W) on trace 1: a positive
    margin is a conic Farkas certificate.  It must clear the bound, a
    Cholesky factorization of W - (y^T b + bound / 2) I and the ring check.
    """
    m = len(basis_strings(problem.r_gen))
    y = _hyperplane(cons, rows, v)
    u = cons.matrix.T @ y
    W = _vector_to_gamma(u[:cons.dim_gamma], m)
    y_dot_b = float(y @ cons.rhs)
    lam = float(np.linalg.eigvalsh(W)[0])
    bound = SEPARATION_TOL * np.linalg.norm(u)
    if (lam - y_dot_b <= bound
            or not _factors(W - (y_dot_b + 0.5 * bound) * np.eye(m))
            or not _ring_check(problem, cons, y, u, seed)):
        return None
    return Separation(lam - y_dot_b, lam, y_dot_b, len(y) - rows.rank + rows.fixed)


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


def _complete_on_face(problem: FeasibilityProblem, cons: AffineConstraints, rows: _RowFactor,
                      warm: np.ndarray) -> np.ndarray | None:
    """Completion from a packed gamma (or point): a candidate point, or None when there is none.

    Near a common face of the cone the outer loop closes the gap only
    sublinearly.  Project gamma onto the conserving span g0 + B^perp,
    with g0 the gamma part of x0, seed a thin factor U (gamma = U U^dag)
    from its eigenpairs above 1e-2 of the largest and drive the components
    of U U^dag - g0 along B to zero by Gauss-Newton, which converges even
    on a face with no relative interior, but linearly, as J loses row rank
    at the root: about 0.5 per step over 37 steps at r=3 Ising global.  Each step is
    J^+ (-resid) = J^T (J J^T)^+ (-resid), by lstsq on the small Gram matrix,
    which is singular when J has dependent rows.  U U^dag is PSD by
    construction, and the trace is one of the components, so U = 0 is no
    root.  K x0 = b must hold.  The descent stops once the residual is below
    1e-13, after 60 steps or when LAPACK cannot solve a step, and
    returns its smallest-residual iterate unjudged: the caller certifies it
    on the ring.  None means the projected gamma has no positive eigenvalue.
    """
    m = len(basis_strings(problem.r_gen))
    K, b = cons.matrix, cons.rhs
    v = warm[:m * m]
    lam, V = np.linalg.eigh(_vector_to_gamma(v - _fixed_part(rows, v - rows.x0[:m * m]), m))
    if lam[-1] <= 0.0:
        return None
    Bk, c = rows.face
    rank = int((lam > 1e-2 * lam[-1]).sum())
    U = V[:, -rank:] * np.sqrt(lam[-rank:])
    best, least = U, np.inf
    for _ in range(60):
        resid, J = _gauss_newton_system(Bk, c, U)
        if (size := np.linalg.norm(resid)) < least:
            best, least = U, size
        if size < 1e-13:
            break
        try:
            delta = J.T @ np.linalg.lstsq(J @ J.T, -resid, rcond=None)[0]
        except np.linalg.LinAlgError:  # LAPACK found no step: stop at the best iterate
            break
        U = U + (delta[:U.size] + 1j * delta[U.size:]).reshape(m, rank)
    U = best
    gpacked = _gamma_to_vector(U @ U.conj().T) * (1.0 / np.linalg.norm(U) ** 2)
    eta, *_ = np.linalg.lstsq(K[:, m * m:], b - K[:, :m * m] @ gpacked, rcond=None)
    return np.concatenate([gpacked, eta])


def search(problem: FeasibilityProblem, seed: int = 0) -> FeasibilityResult:
    """FISTA for f = |B^T (gamma - g0)|^2 / 2 on {gamma PSD, tr gamma = 1}, g0 from x0.

    H is free, so gamma completes exactly when f = 0.  B has orthonormal
    columns, so each step projects z - B B^T (z - g0), block by block, with
    step size 1 (Beck and Teboulle, SIAM J. Imaging Sci. 2, 2009).  Every
    CHECK_PERIOD iterations the search records |B^T (gamma - g0)| and looks
    for a proof, stopping at the first: a separating hyperplane (`separated`)
    or, when K x0 = b, a completion from gamma that _accept, the only judge
    of a feasible result, certifies on the ring (`completed_on_face`).
    Without a proof the search runs to MAX_ITER (`max_iter`).
    """
    cons = build_affine_constraints(problem)
    rows = _factor_rows(cons)
    K, b = cons.matrix, cons.rhs
    m = len(basis_strings(problem.r_gen))
    # K x0 != b leaves only traceless conserving gammas: nothing to complete;
    # the trace row makes max |K| at least 1
    completes = np.linalg.norm(K @ rows.x0 - b) <= 1e-9 * np.abs(K).max()

    g0 = rows.x0[:m * m]
    gamma = _project_cone(np.random.default_rng(seed).standard_normal(m * m) * (1.0 / m), m)
    z, t = gamma, 1.0
    stop_reason, got, separation, gaps, iterations = "max_iter", None, None, [], 0
    for iterations in range(1, MAX_ITER + 1):
        step = _project_cone(z - _fixed_part(rows, z - g0), m)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        z = step + ((t - 1.0) / t_next) * (step - gamma)
        gamma, t = step, t_next
        if iterations % CHECK_PERIOD:
            continue
        gaps.append((iterations, float(np.linalg.norm(_fixed_coordinates(rows, gamma - g0)))))
        if (separation := _separation(problem, cons, rows, gamma - g0, seed)) is not None:
            stop_reason = "separated"
            break
        if (completes and (cand := _complete_on_face(problem, cons, rows, gamma)) is not None
                and (got := _accept(cand, problem))):
            stop_reason, gamma = "completed_on_face", cand[:m * m]
            break

    gen, residual = got or (None, None)
    distance = float(np.linalg.norm(_fixed_coordinates(rows, gamma - g0)))
    return FeasibilityResult(
        status="not_found" if got is None else "feasible", generator=gen, residual=residual,
        iterations=iterations, affine_distance=distance,
        certificate=None if got else _obstruction_certificate(problem),
        constraints=(len(b), rows.rank, rows.blocks, rows.fixed,
                     stable_ring_length(problem.r_gen, problem.target.n, problem.mode)),
        stop_reason=stop_reason, separation=separation, gap_trace=tuple(gaps))


# -- problem files -------------------------------------------------------------


def parse_problem_file(text: str, r_gen: int | None = None, n: int | None = None,
                       mode: str | None = None) -> FeasibilityProblem:
    """Read a density (r=<int> header plus operator lines) and an optional [problem] section.

    The keyword options that are not None and the keys the section sets
    form one option set: a key given both ways is refused as set twice.
    """
    found = sections(text, ("problem",))
    target = parse_density_file("\n".join(line for _, _, line in found.get(None, [])))
    opts = {key: val for key, val in (("r_gen", r_gen), ("n", n), ("mode", mode))
            if val is not None}
    for _, raw, line in found.get("problem", []):
        if "=" not in line:
            raise ValueError(f"bad problem line: {raw!r}")
        key, val = (t.strip() for t in line.split("=", 1))
        if key in opts:
            raise ValueError(f"problem key {key!r} is set twice")
        opts[key] = val
    unknown = set(opts) - {"r_gen", "n", "mode"}
    if unknown:
        raise ValueError(f"unknown problem keys: {sorted(unknown)}")
    if "r_gen" not in opts:
        raise ValueError("the generator width r_gen is not set")
    return FeasibilityProblem(
        target,
        r_gen=int(opts["r_gen"]),
        n=int(opts["n"]) if "n" in opts else None,
        mode=opts.get("mode", "global"),
    )
