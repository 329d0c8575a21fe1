"""Translationally invariant sums on rings and their conservation.

A density is a window operator a; its ring sum is A = sum_j T^j(a).
Conservation comes in two strengths: global (the generator sum
annihilates A) and local (every placement of the generator annihilates
every placement of a).  Residuals below ZERO_TOL count as zero;
residuals inside the band up to INDETERMINATE_TOL are neither accepted
nor rejected and fail closed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .generators import LindbladGenerator
from .pauli import PauliOperator, content_lines, format_operator, parse_operator, sum_operators

ZERO_TOL = 1e-12
INDETERMINATE_TOL = 1e-8
CANONICAL_TOL = 1e-10


def safe_ring_length(gen_r: int, a_r: int) -> int:
    """Default ring length keeping window collisions away from the sums."""
    return 2 * (gen_r + a_r)


def assemble_sum(a: PauliOperator, n: int) -> PauliOperator:
    """A = sum over all n cyclic placements of the window operator a."""
    if n < a.n:
        raise ValueError("ring shorter than the density window")
    out = PauliOperator.zero(n)
    for j in range(n):
        out = out + a.embed(n, j)
    return out


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
    return all(abs(v) <= ZERO_TOL for v in sums.values())


# -- conservation --------------------------------------------------------------


def global_conservation_residual(gen: LindbladGenerator, a: PauliOperator, n: int | None = None) -> float:
    """Norm of sum_j L_j(A) on an n-site ring.

    A is translation invariant, so L_j(A) = T^j L_0(A): one placement of
    the generator and a ring sum of its image give the whole defect.
    """
    if n is None:
        n = safe_ring_length(gen.r, a.n)
    return assemble_sum(gen.apply(assemble_sum(a, n)), n).hs_norm()


def local_conservation_check(
    gen: LindbladGenerator, a: PauliOperator, n: int | None = None, tol: float = ZERO_TOL
) -> tuple[bool, float, tuple[int, int] | None]:
    """Whether every placement of the generator kills every placement of a.

    By translation symmetry only the generator at offset 0 is checked
    against all placements of a.  Returns (ok, worst residual, first
    offending placement (j, k) or None).
    """
    if n is None:
        n = safe_ring_length(gen.r, a.n)
    worst = 0.0
    offender = None
    for k in range(n):
        r = gen.apply(a.embed(n, k), offset=0).hs_norm()
        if r > worst:
            worst = r
        if offender is None and r > tol:
            offender = (0, k)
    return offender is None, worst, offender


@dataclass(frozen=True)
class ConservationReport:
    mode: str
    n: int
    residual: float
    verdict: str  # conserved | violated | indeterminate
    short_ring: bool  # n below safe_ring_length: windows may collide on the ring
    offender: tuple[int, int] | None = None


def check_conservation(
    gen: LindbladGenerator,
    a: PauliOperator,
    mode: str = "global",
    n: int | None = None,
    zero_tol: float = ZERO_TOL,
) -> ConservationReport:
    """Conservation check with a fail-closed indeterminate band."""
    if n is None:
        n = safe_ring_length(gen.r, a.n)
    if mode == "global":
        residual = global_conservation_residual(gen, a, n)
        offender = None
    elif mode == "local":
        ok, residual, offender = local_conservation_check(gen, a, n, tol=zero_tol)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    if residual < zero_tol:
        verdict = "conserved"
    elif residual <= INDETERMINATE_TOL:
        verdict = "indeterminate"
    else:
        verdict = "violated"
    return ConservationReport(mode=mode, n=n, residual=residual, verdict=verdict,
                              short_ring=n < safe_ring_length(gen.r, a.n), offender=offender)


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
    if s[0] <= 1e-12 * max(1.0, a.hs_norm()):
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
    bound = CANONICAL_TOL * max(1.0, a.hs_norm())
    U, s, Vh = np.linalg.svd(M)
    if s[0] <= bound:
        return True, params  # pure field
    if s[1] > bound:
        return False, params
    axis = U[:, 0] + Vh[0, :]
    norm2 = axis @ axis
    if norm2 <= bound ** 2:
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
