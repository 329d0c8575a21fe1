"""Translationally invariant sums on rings and their conservation.

A density is a window operator a; its ring sum is A = sum_j T^j(a).
Conservation comes in two strengths: global (the generator sum
annihilates A) and local (every placement of the generator annihilates
every placement of a).  check_conservation, the one judge of a
residual, the search's too, reads it against the scale s of
conservation_scale, the size of the generator parts and density strings
that the generator does not map to exactly zero: up to ZERO_TOL s it
counts as zero, above INDETERMINATE_TOL s as a violation, and in between
it fails closed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .generators import _DIGITS, LindbladGenerator, _gamma_to_vector, _real_column, product_table
from .pauli import PRUNE_TOL, PauliOperator, content_lines, format_operator, parse_operator, sum_operators

ZERO_TOL = 1e-8
INDETERMINATE_TOL = 1e-6
# the share of the whole inputs' size that conservation_scale keeps, for rounding
ROUNDING_SHARE = 1e-5
CANONICAL_TOL = 1e-10


def safe_ring_length(gen_r: int, a_r: int) -> int:
    """Default ring length keeping window collisions away from the sums."""
    return 2 * (gen_r + a_r)


def stable_ring_length(gen_r: int, a_r: int, mode: str) -> int:
    """n0: rings of n >= n0 sites share one row space (feasibility.build_affine_constraints)."""
    if mode not in ("global", "local"):
        raise ValueError(f"unknown mode {mode!r}")
    return 2 * gen_r + a_r - 1 if mode == "global" else gen_r + a_r


def assemble_sum(a: PauliOperator, n: int) -> PauliOperator:
    """A = sum over all n cyclic placements of the window operator a, pruned at each placement."""
    if n < a.n:
        raise ValueError("ring shorter than the density window")
    out: dict[str, complex] = {}
    for j in range(n):
        for s, c in a.embed(n, j).terms.items():
            out[s] = out.get(s, 0j) + c
            if abs(out[s]) <= PRUNE_TOL:
                del out[s]
    return PauliOperator._unchecked(n, out)


# -- zero TI sums -------------------------------------------------------------


def ti_sum_is_zero(b: PauliOperator) -> bool:
    """Whether the ring sum of a window operator vanishes, read off its strings.

    Every window string splits into a primitive pattern (first through
    last non-identity letter) at an offset; the ring sum vanishes if and
    only if the operator has no identity component and the coefficients
    of every pattern sum to zero over its offsets.
    """
    sums: dict[str, complex] = {}
    for s, c in b.terms.items():
        core = s.strip("I")  # the identity string is the empty pattern
        sums[core] = sums.get(core, 0j) + c
    return all(abs(v) <= 1e-12 for v in sums.values())


# -- conservation --------------------------------------------------------------


def global_conservation_residual(gen: LindbladGenerator, a: PauliOperator, n: int) -> float:
    """Norm of sum_j L_j(A) on an n-site ring: check_conservation's global residual."""
    return check_conservation(gen, a, "global", n).residual


def local_conservation_check(gen: LindbladGenerator, a: PauliOperator,
                             n: int) -> tuple[bool, float, tuple[int, int] | None]:
    """(conserved, worst residual, first placement (j, k) above ZERO_TOL s) of the local check."""
    report = check_conservation(gen, a, "local", n)
    return report.verdict == "conserved", report.residual, report.offender


def conservation_scale(gen: LindbladGenerator, d: PauliOperator, n: int,
                       mode: str) -> tuple[float, float]:
    """s = |d_L| (size of the acting parts) + ROUNDING_SHARE |d| (size of all parts).

    d is what the residual reads: the ring sum (global) or the window
    operator (local).  The parts are the jumps of gamma, its eigenpairs
    (lambda, v) above its numerical rank, of size |lambda|, and the
    Hamiltonian strings, of size |h|, in global mode merged with their
    translates, since XI - IX has no ring sum.  A part acts when its image
    of some r-site window of some string of d is not exactly zero; d_L
    keeps the non-identity strings a part acts on (only the imaginary part
    of gamma acts on the identity, and rounding alone gives gamma one).
    A part or string mapped to exactly zero carries no error into the
    residual, so it cannot hide a violation, however large; the rounding
    share keeps the bands above the rounding of parts that cancel in sum.
    Also returns the largest image amplitude the acting parts can leave:
    |c| times the size of the part, over the strings c of d and the parts
    that act on them.
    """
    r, (phase, _) = gen.r, product_table(gen.r)
    ring = {u.ljust(n, "I"): abs(c) for u, c in d.terms.items() if u.strip("I")}
    windows = [{int((u + u)[k:k + r].translate(_DIGITS), 4) for k in range(n)} for u in ring]
    pieces = np.array(sorted(set().union(*windows)), dtype=int)
    h: dict[str, float] = {}
    for s, c in gen.hamiltonian.terms.items():
        key = s.lstrip("I").ljust(r, "I") if mode == "global" else s
        h[key] = h.get(key, 0.0) + c.real
    h.pop("I" * r, None)
    hs = np.array([int(s.translate(_DIGITS), 4) for s in h], dtype=int)
    lam, V = np.linalg.eigh(gen.gamma)
    keep = np.abs(lam) > np.abs(lam).max(initial=0.0) * len(lam) * np.finfo(float).eps
    jumps = [np.append(_gamma_to_vector(x * np.outer(v, v.conj()), off=1.0), np.zeros(len(lam)))
             for x, v in zip(lam[keep], V.T[keep])]  # the (gamma, H) coordinates of each jump
    sizes = np.abs(np.concatenate([lam, list(h.values())]))
    acts = np.zeros((len(sizes), len(pieces)), dtype=bool)  # jumps below the rank do not act
    acts[len(lam):] = phase[np.ix_(hs, pieces)] != phase[np.ix_(pieces, hs)].T
    for q, b in enumerate(pieces):
        rows, cols, vals = _real_column(r, b)
        hit = [np.bincount(rows, vals * x[cols], 4 ** r).any() for x in jumps]
        acts[np.flatnonzero(keep), q] = hit
    meets = np.zeros((len(ring), len(pieces)), dtype=bool)
    for i, w in enumerate(windows):
        meets[i, np.searchsorted(pieces, list(w))] = True
    pairs = meets.astype(float) @ acts.T > 0  # (string, part): the part acts on the string
    coef = np.array(list(ring.values()), dtype=float)
    scale = math.hypot(*coef[pairs.any(axis=1)]) * sizes[acts.any(axis=1)].sum()
    return (scale + ROUNDING_SHARE * d.hs_norm() * sizes.sum(),
            (coef[:, None] * sizes * pairs).max(initial=0.0))


@dataclass(frozen=True)
class ConservationReport:
    mode: str
    n: int
    residual: float
    scale: float  # s: the verdict reads residual / s against ZERO_TOL and INDETERMINATE_TOL
    verdict: str  # conserved | violated | indeterminate
    short_ring: bool  # n below stable_ring_length: the verdict may not hold on longer rings
    offender: tuple[int, int] | None = None


def check_conservation(gen: LindbladGenerator, a: PauliOperator, mode: str = "global",
                       n: int | None = None) -> ConservationReport:
    """The verdict on the residual of the inputs as given, read against conservation_scale.

    Global: |ring sum of L_0(A)|, A the ring sum of a, which is sum_j L_j(A)
    as A is translation invariant.  Local: the largest |L_0(a at k)| over
    the placements k, the generator at offset 0 standing for every one.
    """
    n = safe_ring_length(gen.r, a.n) if n is None else n
    short_ring = n < stable_ring_length(gen.r, a.n, mode)  # refuses an unknown mode
    d = assemble_sum(a, n) if mode == "global" else a
    residuals = ([assemble_sum(gen.apply(d), n).hs_norm()] if mode == "global"
                 else [gen.apply(a.embed(n, k)).hs_norm() for k in range(n)])
    scale, amplitude = conservation_scale(gen, d, n, mode)
    offender = None if mode == "global" else next(
        ((0, k) for k, x in enumerate(residuals) if x > ZERO_TOL * scale), None)
    residual = max(residuals)
    # the image drops amplitudes up to PRUNE_TOL: below it a violation can vanish
    pruned = 0.0 < amplitude < PRUNE_TOL
    verdict = ("conserved" if residual <= ZERO_TOL * scale and not pruned
               else "indeterminate" if residual <= INDETERMINATE_TOL * scale else "violated")
    return ConservationReport(mode=mode, n=n, residual=residual, scale=scale, verdict=verdict,
                              short_ring=short_ring, offender=offender)


# -- two-site normal form -------------------------------------------------------

_AXES = "XYZ"


def _field_vectors(a: PauliOperator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(M, u0, u1): two-site coefficient matrix and the two field vectors."""
    M = np.zeros((3, 3))
    u0 = np.zeros(3)
    u1 = np.zeros(3)
    for p in range(3):
        u0[p] = a.coefficient(_AXES[p] + "I").real
        u1[p] = a.coefficient("I" + _AXES[p]).real
        for q in range(3):
            M[p, q] = a.coefficient(_AXES[p] + _AXES[q]).real
    return M, u0, u1


def symmetrize_fields(a: PauliOperator) -> PauliOperator:
    """Replace both one-site field vectors by their average.

    The ring sum is unchanged: the difference is of the form w 1 - 1 w,
    whose cyclic placements cancel.
    """
    if a.n != 2:
        raise ValueError("field symmetrization is defined for two-site operators")
    _, u0, u1 = _field_vectors(a)
    avg = 0.5 * (u0 + u1)
    out = dict(a.terms)
    for p in range(3):
        for key, val in ((_AXES[p] + "I", avg[p]), ("I" + _AXES[p], avg[p])):
            out.pop(key, None)
            if abs(val) > 0:
                out[key] = val
    return PauliOperator(2, out)


@dataclass(frozen=True, eq=False)
class CanonicalParams:
    """Normal form data for a Hermitian two-site density.

    The density equals, after averaging its two one-site field vectors
    (a change invisible to ring sums),

        scale * (R1 x R2)[XX + mu YY + nu ZZ + w 1 + 1 w] + shift * 11

    with w = h . sigma, mu, nu in [0, 1], and R1, R2 special orthogonal
    rotations acting on Pauli vectors.  When the two-site part vanishes
    scale is 0 and the field term is kept unscaled.
    """

    mu: float
    nu: float
    h: tuple[float, float, float]
    rotation_left: np.ndarray
    rotation_right: np.ndarray
    identity_shift: float
    scale: float

    @classmethod
    def at(cls, mu: float, nu: float, h=(0.0, 0.0, 0.0)) -> "CanonicalParams":
        """Bare canonical point: identity frames, unit scale, no shift."""
        return cls(float(mu), float(nu), (float(h[0]), float(h[1]), float(h[2])),
                   np.eye(3), np.eye(3), 0.0, 1.0)


_FLIPS = (
    np.diag([1.0, 1.0, 1.0]),
    np.diag([1.0, -1.0, -1.0]),
    np.diag([-1.0, 1.0, -1.0]),
    np.diag([-1.0, -1.0, 1.0]),
)


def _fix_column_signs(R1: np.ndarray, R2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic two-sided pi-flip: leading entries of R1's first columns >= 0."""
    def negative_lead(D: np.ndarray) -> bool:
        leads = (next((x for x in col if abs(x) > 1e-12), 0.0) for col in (R1 @ D)[:, :2].T)
        return any(lead < -1e-12 for lead in leads)

    best = next((D for D in _FLIPS if not negative_lead(D)), _FLIPS[0])
    return R1 @ best, R2 @ best


def _frame_from_direction(u: np.ndarray) -> np.ndarray:
    """Rotation whose first column is u / |u| (identity when u is 0)."""
    norm = np.linalg.norm(u)
    if norm < 1e-300:
        return np.eye(3)
    e1 = u / norm
    pick = np.argmin(np.abs(e1))
    aux = np.zeros(3)
    aux[pick] = 1.0
    e2 = aux - e1 * (e1 @ aux)
    e2 /= np.linalg.norm(e2)
    e3 = np.cross(e1, e2)
    return np.column_stack([e1, e2, e3])


def canonical_form(a: PauliOperator) -> CanonicalParams:
    """Bring a Hermitian two-site density to normal form.

    The two-site coefficient matrix is diagonalized by singular value
    decomposition with determinant-corrected rotations; sign flips of
    axis pairs make the two junior weights nonnegative, absorbing any
    orientation mismatch into the sign of `scale`.  The field is the
    rotated-frame solution of (R1 + R2) h = (u0 + u1) / scale, which is
    exact for ring sums after field averaging.
    """
    if a.n != 2:
        raise ValueError("canonical form is defined for two-site operators")
    if not a.is_hermitian(1e-10):
        raise ValueError("canonical form needs a Hermitian operator")
    shift = a.coefficient("II").real
    M, u0, u1 = _field_vectors(a)

    U, s, Vh = np.linalg.svd(M)
    if s[0] <= 1e-12 * a.hs_norm():
        # pure field: rotate the averaged field onto the x axis
        avg = 0.5 * (u0 + u1)
        R = _frame_from_direction(avg)
        h = (float(np.linalg.norm(avg)), 0.0, 0.0)
        return CanonicalParams(
            mu=0.0, nu=0.0, h=h, rotation_left=R, rotation_right=R,
            identity_shift=shift, scale=0.0,
        )

    R1 = U @ np.diag([1.0, 1.0, np.linalg.det(U)])
    V = Vh.T
    R2 = V @ np.diag([1.0, 1.0, np.linalg.det(V)])
    t = s[2] * np.linalg.det(U) * np.linalg.det(V)
    if t < 0:
        scale = -s[0]
        R1 = R1 @ np.diag([-1.0, -1.0, 1.0])
        mu, nu = s[1] / s[0], -t / s[0]
    else:
        scale = s[0]
        mu, nu = s[1] / s[0], t / s[0]
    R1, R2 = _fix_column_signs(R1, R2)

    rhs = (u0 + u1) / scale
    K = R1 + R2
    # rank-deficient K (degenerate weights) -> pick the least-norm gauge
    h, *_ = np.linalg.lstsq(K, rhs, rcond=1e-10)
    return CanonicalParams(
        mu=float(mu), nu=float(nu), h=(float(h[0]), float(h[1]), float(h[2])),
        rotation_left=R1, rotation_right=R2, identity_shift=float(shift), scale=float(scale),
    )


def reconstruct(params: CanonicalParams) -> PauliOperator:
    """Two-site operator described by CanonicalParams."""
    R1, R2 = params.rotation_left, params.rotation_right
    D = np.diag([1.0, params.mu, params.nu])
    h = np.array(params.h)
    if params.scale == 0.0:
        M = np.zeros((3, 3))
        f0 = R1 @ h
        f1 = R2 @ h
    else:
        M = params.scale * (R1 @ D @ R2.T)
        f0 = params.scale * (R1 @ h)
        f1 = params.scale * (R2 @ h)
    terms: dict[str, complex] = {}
    if params.identity_shift:
        terms["II"] = params.identity_shift
    for p in range(3):
        terms[_AXES[p] + "I"] = terms.get(_AXES[p] + "I", 0j) + f0[p]
        terms["I" + _AXES[p]] = terms.get("I" + _AXES[p], 0j) + f1[p]
        for q in range(3):
            terms[_AXES[p] + _AXES[q]] = terms.get(_AXES[p] + _AXES[q], 0j) + M[p, q]
    return PauliOperator(2, terms)


def canonical_residual(a: PauliOperator, params: CanonicalParams) -> float:
    """Distance between a and its reconstruction, modulo field averaging."""
    return (symmetrize_fields(reconstruct(params)) - symmetrize_fields(a)).hs_norm()


def classify_ising(a: PauliOperator) -> tuple[bool, CanonicalParams]:
    """Whether the density is of Ising type: scale*(u.s)(w.s) plus fields along u, w.

    Tested on the rotation invariants directly: the correlation matrix must
    have rank at most one and the summed field must be parallel to e + f,
    where e and f are the left and right principal axes.  The frame
    completion of a rank-deficient correlation matrix is a gauge choice, so
    the per-axis field components of the normal form cannot be used here.
    """
    params = canonical_form(a)
    M, u0, u1 = _field_vectors(a)
    u = u0 + u1
    bound = CANONICAL_TOL * a.hs_norm()
    U, s, Vh = np.linalg.svd(M)
    if s[0] <= bound:
        return True, params  # pure field
    if s[1] > bound:
        return False, params
    axis = U[:, 0] + Vh[0, :]
    norm2 = axis @ axis
    if norm2 <= CANONICAL_TOL ** 2:
        # antipodal principal axes: no field direction survives averaging
        return bool(np.linalg.norm(u) <= bound), params
    residual = u - axis * ((axis @ u) / norm2)
    return bool(np.linalg.norm(residual) <= bound), params


# -- density files ---------------------------------------------------------------


def parse_density_file(text: str) -> PauliOperator:
    """Read a density: a header line r=<int>, then operator lines (summed)."""
    lines = [line for _, _, line in content_lines(text)]
    if not lines:
        raise ValueError("empty density file")
    m = lines[0].replace(" ", "")
    if not m.startswith("r="):
        raise ValueError("density file must start with a r=<int> header")
    r = int(m[2:])
    if r < 1:
        raise ValueError("window width must be positive")
    if len(lines) == 1:
        raise ValueError("density file declares no operator")
    return sum_operators(parse_operator(line, n=r) for line in lines[1:])


def format_density_file(a: PauliOperator) -> str:
    return f"r={a.n}\n{format_operator(a)}\n"
