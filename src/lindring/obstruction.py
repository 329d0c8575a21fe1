"""Obstruction matrices for ring-sum conservation by dissipative generators.

Whether a width-r generator can conserve the ring sum A of the canonical
density a = XX + mu YY + nu ZZ + w1 + 1w is decided by one quadratic
form.  With jumps L_k acting as 2 L A L^dag - {L^dag L, A} (generators),

    <A, D(A)> = -sum_k ||[L_k^dag, A]||^2 + <A^2, D(1)> / 2:

the Hamiltonian drops out, and the identity image D(1) vanishes on the
generators a translation invariant conserver may use (unitality_forms).
So with L = sum_s c_s P_s over the window strings, the obstruction
matrix is C = -Re M(a)^dag M(a), where M(a) has the column [P_s, A] in
Pauli coefficients on a ring too long for a window to meet its periodic
image.  M(a) = sum_i a_i M_i over the six density components, a = (1,
mu, nu, h_x, h_y, h_z), so C = sum_{i<=j} a_i a_j T_ij: 21 real symmetric
tables per width, built once.  When C is negative definite, no generator
of that width with a nonzero dissipative part conserves the density.
The projection equations (conservation_forms) reach the same C the
paper's way, from the coefficients of the image of A; the tests hold the
two routes to the same bits.

A point's weights a_i a_j decide which tables count.  C vanishes exactly
off the connected components of the nonzero entries of those tables, so
its spectrum is the union of theirs.  The tables are written in strings
even and odd under the site reflection (combination_matrix) and commute
with it, so no component crosses the two sectors: at width 3 they have
sizes 39 and 24 with every weight nonzero, 6, 3 and 1 at h = 0.  A table
that broke the reflection would merge the sectors, not change a verdict.
scan stacks the points of one weight pattern, which share its blocks;
obstruction and search take one point down the same path.  Each sums
the point's tables on its block entries alone, so a point gets the
same bits in scan, obstruction and search.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .generators import (_DIGITS, _class_representative, _image_terms, _vector_to_gamma,
                         all_strings, basis_strings, product_table)
from .pauli import PauliOperator
from .rings import CanonicalParams, assemble_sum, safe_ring_length, stable_ring_length

ZERO_BAND = 1e-9
DEGENERACY_TOL = 1e-8
B2_TOL = 1e-10

NAMED_PATTERNS = ("xx", "yy", "zz", "x", "y", "z")
_PATTERN_STRINGS = {"xx": "XX", "yy": "YY", "zz": "ZZ", "x": "X", "y": "Y", "z": "Z"}

MU_AXIS = tuple(round(0.05 * k, 2) for k in range(21))
H_AXIS = (-2.0, -1.0, -0.5, -0.1, 0.0, 0.1, 0.5, 1.0, 2.0)

# a scan pass holds points of one weight pattern and at most _CHUNK * 63**2
# block entries (seven width-3 points with blocks 39 and 24); more raise peak memory
_CHUNK = 4


@dataclass(frozen=True, eq=False)
class QuadraticForm:
    """One projection equation: value on (c, d) is c^dag Q c + d_linear . d."""

    name: str
    basis: tuple[str, ...]
    Q: np.ndarray
    d_linear: np.ndarray

    def value(self, c, d=None) -> float:
        c = np.asarray(c, dtype=complex)
        v = float(np.real(np.conj(c) @ self.Q @ c))
        if d is not None:
            v += float(self.d_linear @ np.asarray(d, dtype=float))
        return v


@dataclass(frozen=True, eq=False)
class ObstructionMatrix:
    """C at one point; 0.0 off the index sets of blocks, which partition the basis (None: one)."""

    C: np.ndarray
    basis: str
    params: CanonicalParams
    blocks: tuple[np.ndarray, ...] | None = None


@dataclass(frozen=True, eq=False)
class DefinitenessReport:
    eigenvalues: np.ndarray
    max_eigenvalue: float
    nullity: int
    verdict: str


# -- projection equations ----------------------------------------------------


def _component_ring_sums(n: int) -> list[PauliOperator]:
    """Ring sums of the six density components, in NAMED_PATTERNS order."""
    comps = ({"XX": 1.0}, {"YY": 1.0}, {"ZZ": 1.0}, {"XI": 1.0, "IX": 1.0},
             {"YI": 1.0, "IY": 1.0}, {"ZI": 1.0, "IZ": 1.0})
    return [assemble_sum(PauliOperator(2, terms), n) for terms in comps]


def _pattern_forms(patterns, n: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Real coordinates of pattern projections against all six components.

    The image of a ring sum under all n window placements is translation
    invariant, so its coefficient on a pattern p is n / |class(p)| times
    the sum of the rows of all rotations of p in the image under the one
    placement of _image_terms.  Patterns are site-0 anchored strings of
    distinct classes.  Returns the gamma coordinates and the Hamiltonian
    coefficients, stacked (pattern, component, ...).
    """
    m = 4 ** r - 1
    rotations = [{q[i:] + q[:i] for i in range(n)} for q in (p.ljust(n, "I") for p in patterns)]
    keys = {s: i for i, rots in enumerate(rotations) for s in rots}
    weight = n / np.array([len(rots) for rots in rotations])
    sums = _component_ring_sums(n)
    forms = np.zeros((len(rotations), len(sums), m * m + m))
    for c, A in enumerate(sums):
        _, row, col, val = _image_terms(r, A, False, keys=keys)
        forms[row, c, col] = weight[row] * val
    return forms[..., :m * m], forms[..., m * m:]


def _require(ok, exc, points, message: str) -> None:
    """Raise exc for the first point where `ok` fails, naming that grid point.

    Checks are written as value <= bound, so a NaN value fails them.
    """
    if not ok.all():
        i = int(np.argmin(ok))
        if points is not None:
            message += f" at (mu, nu, hx, hy, hz) = {tuple(points[i].tolist())}"
        raise exc(message)


def _point(params: CanonicalParams) -> np.ndarray:
    if params.scale == 0.0:
        raise ValueError("density has no two-site part in canonical form")
    return np.array([[params.mu, params.nu, *params.h]])


def conservation_forms(r_gen: int, params: CanonicalParams,
                       patterns=None) -> dict[str, QuadraticForm]:
    """Projection equations for the canonical density, one per pattern class.

    The six named equations use keys xx, yy, zz, x, y, z.  Additional
    translation classes can be requested by their site-0 anchored string
    (for example "zy" or "xIx"); each gives the quadratic form read off
    from the coefficient of that class in the image of the summed
    density.  Rotations and overall scale of `params` are ignored: both
    act by congruence and do not move the zero set.
    """
    if r_gen not in (2, 3):
        raise ValueError("generator width must be 2 or 3")
    a = np.array([1.0, *_point(params)[0]])
    basis = tuple(basis_strings(r_gen))
    n = safe_ring_length(r_gen, 2)
    classes = {}
    for pat in NAMED_PATTERNS if patterns is None else patterns:
        string = _PATTERN_STRINGS.get(pat, pat.upper())
        if not string or string.strip("IXYZ"):
            raise ValueError(f"bad pattern string: {pat!r}")
        if len(string) > n:
            raise ValueError(f"pattern {pat!r} is longer than the ring (n={n})")
        classes[pat] = _class_representative(string.ljust(n, "I"))
    rows = {key: i for i, key in enumerate(dict.fromkeys(classes.values()))}
    g, l = (np.tensordot(a, t, axes=(0, 1)) for t in _pattern_forms(list(rows), n, r_gen))
    Q = _vector_to_gamma(g, len(basis), 2.0)
    return {pat: QuadraticForm(name=pat, basis=basis, Q=Q[rows[key]], d_linear=l[rows[key]])
            for pat, key in classes.items()}


# -- unitality forms ---------------------------------------------------------


def _unitality_patterns(r_gen: int) -> dict[str, tuple[str, ...]]:
    """Each pattern's window strings, summed with weight one; no string is in two patterns."""
    ax = "XYZ"
    pats: dict[str, tuple[str, ...]] = {}
    if r_gen == 2:
        for a in ax:
            pats[2 * a.lower()] = (a + a,)
        for a, b in (("X", "Y"), ("X", "Z"), ("Y", "Z")):
            pats[(a + b).lower()] = (a + b, b + a)
        for a in ax:
            pats[a.lower()] = (a + "I", "I" + a)
        return pats
    # width 3: full windows, gapped windows, and placement sums
    for a, b, c in itertools.product(ax, repeat=3):
        pats[(a + b + c).lower()] = (a + b + c,)
    for a, b in itertools.product(ax, repeat=2):
        pats[f"{a.lower()}_{b.lower()}"] = (a + "I" + b,)
    for a, b in itertools.product(ax, repeat=2):
        pats[(a + b).lower()] = (a + b + "I", "I" + a + b)
    for a in ax:
        pats[a.lower()] = (a + "II", "I" + a + "I", "II" + a)
    return pats


def unitality_forms(r_gen: int) -> dict[str, QuadraticForm]:
    """Quadratic forms of the window identity image, projected per class.

    These measure 2<pattern|[P_j, P_k]> and vanish on every generator
    whose identity image is a divergence, which is exactly the class a
    translation invariant conserver may use.  They are purely imaginary
    and carry no Hamiltonian part.  Each pattern's strings pile onto its form.
    """
    if r_gen not in (2, 3):
        raise ValueError("generator width must be 2 or 3")
    basis = tuple(basis_strings(r_gen))
    patterns = _unitality_patterns(r_gen)
    rows = {s: i for i, strings in enumerate(patterns.values()) for s in strings}
    _, row, col, val = _image_terms(r_gen, PauliOperator.identity(r_gen), False, keys=rows)
    R = np.zeros((len(patterns), len(basis) ** 2))
    R[row, col] = val  # the identity has no Hamiltonian image
    return {name: QuadraticForm(name=name, basis=basis, Q=q, d_linear=np.zeros(len(basis)))
            for name, q in zip(patterns, _vector_to_gamma(R, len(basis), 2.0))}


# -- assembly ----------------------------------------------------------------


# the 21 terms a_i a_j (i <= j) of C, a = (1, mu, nu, hx, hy, hz), in a fixed order
_I, _J = np.triu_indices(6)


def _commutators(r: int) -> tuple[list[str], np.ndarray]:
    """M_i: the commutators [P_s, A_i] of the window strings with the component ring sums.

    P_s sits on sites 0..r-1 of the stable ring, 2 r + 1 sites.  A string u
    of A_i anticommutes with P_s exactly when the product_table phase of
    their window parts is imaginary, and then [P_s, u] = 2 P_s u.  Returns
    the ring strings of the rows and M, shaped (component, row, basis
    string): 2i times integers, |M| <= 4.
    """
    phase, index = product_table(r)
    rests: dict[str, int] = {}
    comp, key, col, val = [], [], [], []
    for i, A in enumerate(_component_ring_sums(stable_ring_length(r, 2, "global"))):
        for u, coeff in A.terms.items():
            w = int(u[:r].translate(_DIGITS), 4)
            s = np.flatnonzero(phase[1:, w].imag)
            comp.append(np.full(len(s), i))
            key.append(rests.setdefault(u[r:], len(rests)) * 4 ** r + index[1 + s, w])
            col.append(s)
            val.append(2 * coeff * phase[1 + s, w])
    keys, row = np.unique(np.concatenate(key), return_inverse=True)
    M = np.zeros((6, len(keys), 4 ** r - 1), dtype=complex)
    M[np.concatenate(comp), row, np.concatenate(col)] = np.concatenate(val)
    strings, rest = all_strings(r), list(rests)
    return [strings[k % 4 ** r] + rest[k // 4 ** r] for k in keys.tolist()], M


@functools.cache
def _polynomial(r_gen: int) -> np.ndarray:
    """The tables T_k of C(p) = sum_k a_i a_j T_k over the terms k = (i, j), i <= j.

    C = -Re M(a)^dag M(a) with M(a) = sum_i a_i M_i (_commutators), so T_ii
    = -Re M_i^dag M_i and T_ij = -Re (M_i^dag M_j + M_j^dag M_i), in the basis
    of combination_matrix(r_gen): its +-1 columns act on each M_i, and the
    column norms divide last.  Before that every entry is an integer (|T| <=
    160), so any summation order gives the same bits; 0.0 - x keeps zeros +0.0.
    """
    S = np.sign(combination_matrix(r_gen))
    norm = np.linalg.norm(S, axis=0)
    R = _commutators(r_gen)[1].imag @ S  # M = i R, so Re M_i^dag M_j = R_i^T R_j = G[i, j]
    G = R.swapaxes(1, 2)[:, None] @ R
    T = np.where(_I == _J, 0.5, 1.0)[:, None, None] * (G[_I, _J] + G[_J, _I])
    return (0.0 - T) / np.outer(norm, norm)


# overflow is caught by the finiteness check, which names the point
@np.errstate(over="ignore", invalid="ignore")
def _weights(points: np.ndarray) -> np.ndarray:
    """The term weights a_i a_j at a stack of (mu, nu, hx, hy, hz) points."""
    a = np.column_stack([np.ones(len(points)), points])
    return a[:, _I] * a[:, _J]


def _blocks(T: np.ndarray, terms: np.ndarray) -> list[np.ndarray]:
    """Components of the exact nonzeros of T[terms], ordered by first index: C is 0.0 off them."""
    reach = (T != 0)[terms].any(axis=0) | np.eye(T.shape[1], dtype=bool)
    return [cols for _, cols in _column_blocks(reach)]


def _term_entries(T: np.ndarray, terms: np.ndarray, entries: np.ndarray) -> list[tuple]:
    """(k, positions, values) of the nonzero entries of each table T_k, k in terms.

    `entries` are flat indices into C and must hold every such entry (the
    blocks of these terms do); positions index into them.
    """
    flat = T.reshape(len(T), -1)
    position = np.zeros(flat.shape[1], dtype=int)
    position[entries] = np.arange(len(entries))
    out = []
    for k in terms:
        nonzero = np.flatnonzero(flat[k])
        out.append((k, position[nonzero], flat[k, nonzero]))
    return out


@np.errstate(over="ignore", invalid="ignore")
def _combine(w: np.ndarray, term_entries: list[tuple], width: int) -> np.ndarray:
    """sum_k w[:, k] T_k on `width` entries, from 0.0 and one term after another.

    Elementwise in a fixed order, so an entry has the same bits however the
    points are stacked and whichever other entries are summed.  A sum that
    starts at +0.0 never reads -0.0, so skipping the zero entries of a table
    leaves every bit as the dense sum has it.
    """
    out = np.zeros((len(w), width))
    for k, at, values in term_entries:
        out[:, at] += w[:, k, None] * values
    return out


def _obstruction_matrix(r_gen: int, params: CanonicalParams, basis: str) -> ObstructionMatrix:
    """C at one point, summed on its block entries as a scan pass sums them."""
    point = _point(params)
    T, w = _polynomial(r_gen), _weights(point)
    blocks = _blocks(T, terms := np.flatnonzero(w[0]))
    entries, _ = _packing(blocks, T.shape[1])
    packed = _combine(w, _term_entries(T, terms, entries), len(entries))
    # finite parameters can still overflow the quadratic weights; every table
    # has nonzero entries, so an infinite weight leaves C's entries infinite
    _require(np.isfinite(packed).all(axis=1), OverflowError, point,
             "obstruction matrix is not finite")
    C = np.zeros(T.shape[1:])
    np.put(C, entries, packed[0])
    return ObstructionMatrix(C=C, basis=basis, params=params, blocks=tuple(blocks))


# combination basis: 9 symmetric then 6 antisymmetric pairings, unit norm
_COMBINATION_COLUMNS = (
    (("XX", 1),), (("YY", 1),), (("ZZ", 1),),
    (("IX", 1), ("XI", 1)), (("IY", 1), ("YI", 1)), (("IZ", 1), ("ZI", 1)),
    (("ZY", 1), ("YZ", 1)), (("ZX", 1), ("XZ", 1)), (("YX", 1), ("XY", 1)),
    (("IX", 1), ("XI", -1)), (("IY", 1), ("YI", -1)), (("IZ", 1), ("ZI", -1)),
    (("ZY", 1), ("YZ", -1)), (("XZ", 1), ("ZX", -1)), (("YX", 1), ("XY", -1)),
)


def combination_matrix(r: int = 2) -> np.ndarray:
    """Unit-norm change of basis from window strings to their reflection combinations.

    At r=3: the 15 palindromes, then s + reverse(s), then s - reverse(s), s < reverse(s).
    """
    basis = basis_strings(r)
    columns = _COMBINATION_COLUMNS
    if r == 3:
        pairs = [(s, s[::-1]) for s in basis if s < s[::-1]]
        columns = ([((s, 1),) for s in basis if s == s[::-1]]
                   + [((s, 1), (t, 1)) for s, t in pairs] + [((s, 1), (t, -1)) for s, t in pairs])
    idx = {s: i for i, s in enumerate(basis)}
    S = np.zeros((len(basis), len(columns)))
    for col, spec in enumerate(columns):
        for lab, sgn in spec:
            S[idx[lab], col] = sgn
        S[:, col] /= np.linalg.norm(S[:, col])
    return S


def assemble_C_2site(params: CanonicalParams) -> ObstructionMatrix:
    """Obstruction matrix of a width-2 generator, in the combination basis."""
    return _obstruction_matrix(
        2, params, "two-site combinations: 9 symmetric + 6 antisymmetric, unit norm")


def assemble_C_3site(params: CanonicalParams) -> ObstructionMatrix:
    """Obstruction matrix of a width-3 generator, in the reflection basis of combination_matrix(3)."""
    return _obstruction_matrix(
        3, params, "three-site combinations: 39 reflection-symmetric + 24 antisymmetric, unit norm")


def _c2_blocks(mu: float, nu: float, h) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    hx, hy, hz = h
    h2 = hx * hx + hy * hy + hz * hz
    A = 2.0 * np.outer(h, h) - np.diag([
        2 * h2 + mu * mu + nu * nu + mu * nu,
        2 * h2 + 1 + nu + nu * nu,
        2 * h2 + 1 + mu + mu * mu,
    ])
    At = A - np.diag([1.0, mu * mu, nu * nu])
    B = np.array([
        [0.0, -hz * (1 + mu + 2 * nu), hy * (1 + 2 * mu + nu)],
        [hz * (1 + mu + 2 * nu), 0.0, -hx * (2 + mu + nu)],
        [-hy * (1 + 2 * mu + nu), hx * (2 + mu + nu), 0.0],
    ])
    return A, At, B


def _c1_blocks(mu: float, nu: float, h):
    hx, hy, hz = h
    r2 = np.sqrt(2.0)
    A, _, _ = _c2_blocks(mu, nu, h)
    A1 = np.array([
        [-4 * hy ** 2 - 4 * hz ** 2 - mu ** 2 - nu ** 2, 4 * hz ** 2, 4 * hy ** 2],
        [4 * hz ** 2, -1 - 4 * hx ** 2 - 4 * hz ** 2 - nu ** 2, 4 * hx ** 2],
        [4 * hy ** 2, 4 * hx ** 2, -1 - 4 * hx ** 2 - 4 * hy ** 2 - mu ** 2],
    ])
    A2 = A + np.diag([2 * mu * nu, 2 * nu, 2 * mu])
    A3 = A2 + 4.0 * np.outer(h, h) - np.diag([
        1 + 12 * hx ** 2, mu ** 2 + 12 * hy ** 2, nu ** 2 + 12 * hz ** 2])
    B1 = r2 * np.array([
        [0.0, hy * (1 - nu), hz * (1 - mu)],
        [hx * (mu - nu), 0.0, -hz * (1 - mu)],
        [-hx * (mu - nu), -hy * (1 - nu), 0.0],
    ])
    B2 = r2 * np.array([
        [-4 * hy * hz, 2 * hx * hz, 2 * hx * hy],
        [2 * hy * hz, -4 * hx * hz, 2 * hx * hy],
        [2 * hy * hz, 2 * hx * hz, -4 * hx * hy],
    ])
    B3 = np.array([
        [0.0, hz * (1 + mu - 2 * nu), hy * (1 - 2 * mu + nu)],
        [hz * (1 + mu - 2 * nu), 0.0, hx * (mu + nu - 2)],
        [hy * (1 - 2 * mu + nu), hx * (mu + nu - 2), 0.0],
    ])
    return A1, A2, A3, B1, B2, B3


def closed_form_C_2site(params: CanonicalParams) -> ObstructionMatrix:
    """Closed-form width-2 obstruction matrix, 32 blockdiag(C1, C2).

    Same combination basis as assemble_C_2site; the two agree up to one
    global positive scalar independent of the parameters.
    """
    mu, nu, h = params.mu, params.nu, params.h
    A, At, B = _c2_blocks(mu, nu, h)
    C2 = np.block([[A, B.T], [B, At]])
    A1, A2, A3, B1, B2, B3 = _c1_blocks(mu, nu, h)
    C1 = np.block([[A1, B1, B2], [B1.T, A2, B3], [B2.T, B3.T, A3]])
    C = np.zeros((15, 15))
    C[:9, :9] = C1
    C[9:, 9:] = C2
    C = 32.0 * 0.5 * (C + C.T)
    return ObstructionMatrix(
        C=C, basis="two-site combinations: 9 symmetric + 6 antisymmetric, unit norm",
        params=params)


# -- definiteness ------------------------------------------------------------


def _column_blocks(P: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """(rows, columns) of each connected component, with a row, of the row-column graph of P."""
    free, blocks = P.any(axis=0), []
    while free.any():
        cols = np.arange(P.shape[1]) == free.argmax()
        rows = P[:, cols].any(axis=1)
        while not np.array_equal(cols, grown := P[rows].any(axis=0)):
            cols, rows = grown, P[:, grown].any(axis=1)
        blocks.append((np.flatnonzero(rows), np.flatnonzero(cols)))
        free &= ~cols
    return blocks


def _factors(A: np.ndarray) -> bool:
    """Whether the Cholesky factorization of A succeeds."""
    try:
        np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        return False
    return True


def _packing(blocks, m: int) -> tuple[np.ndarray, list[int]]:
    """Flat indices of the blocks' entries in an m x m matrix, smallest first; and the sizes."""
    blocks = sorted(blocks, key=len)
    return np.concatenate([(b[:, None] * m + b).ravel() for b in blocks]), [len(b) for b in blocks]


def _stacks(rows: np.ndarray, sizes: list[int]) -> list[np.ndarray]:
    """Cut rows of packed block entries (_packing) into stacks (points, blocks, s, s)."""
    stacks, offset = [], 0
    for s, k in Counter(sizes).items():  # sizes are sorted: one slice per size
        stacks.append(rows[:, offset:offset + k * s * s].reshape(len(rows), k, s, s))
        offset += k * s * s
    return stacks


def _certify(stacks, zero_band: float, points=None):
    """Verdicts for points whose matrices are direct sums of blocks.

    Each stack holds every point's blocks of one size, shaped (points,
    blocks, s, s); one eigensolve and one Cholesky confirmation per stack.
    Returns each point's top eigenvalue, nullity and verdict, and each
    stack's eigenvalues.
    """
    with np.errstate(invalid="ignore"):  # a NaN goes on to the finiteness check
        scale = 1.0 + np.max([np.abs(C).max(axis=(1, 2, 3)) for C in stacks], axis=0)
    _require(np.isfinite(scale), OverflowError, points, "matrix is not finite")
    asym = np.max([np.abs(C - C.swapaxes(2, 3)).max(axis=(1, 2, 3)) for C in stacks], axis=0)
    _require(asym <= 1e-12 * scale, ValueError, points, "matrix is not symmetric")
    sym = [0.5 * (C + C.swapaxes(2, 3)) for C in stacks]
    evs = [np.linalg.eigvalsh(S) for S in sym]
    max_eig = np.max([ev[..., -1].max(axis=1) for ev in evs], axis=0)
    tol = zero_band * (1.0 + np.max([np.abs(ev).max(axis=(1, 2)) for ev in evs], axis=0))
    nullity = np.sum([(np.abs(ev) < tol[:, None, None]).sum(axis=(1, 2)) for ev in evs], axis=0)
    verdict = np.where(max_eig >= tol, "indefinite",
                       np.where(max_eig > -tol, "negative_semidefinite", "negative_definite"))
    # a definite verdict leaves half the zero band of margin, far above the
    # rounding of a Cholesky factorization: -C - tol/2 factors when C is
    # negative definite, and -C + tol/2 does not when C is indefinite; a
    # direct sum is definite when every block is, indefinite when one is
    definite = verdict == "negative_definite"
    checked = verdict != "negative_semidefinite"
    shift = (np.where(definite, 0.5, -0.5) * tol)[checked, None, None]
    factors = np.ones(len(verdict), dtype=bool)
    for S in sym:
        A, i = -S[checked], np.arange(S.shape[-1])
        A[..., i, i] -= shift
        A /= scale[checked, None, None, None]
        # one stacked factorization; split only to find the points whose blocks fail
        factors[checked] &= _factors(A) or [_factors(a) for a in A]
    _require(~checked | (factors == definite), ArithmeticError, points,
             "eigenvalue verdict fails its Cholesky check")
    return max_eig, nullity, verdict, evs


def certify_definiteness(C: np.ndarray, zero_band: float = ZERO_BAND, blocks=None, *,
                         params: CanonicalParams | None = None) -> DefinitenessReport:
    """Eigenvalue verdict, confirmed by a Cholesky factorization when definite.

    Zero means |lambda| < zero_band * (1 + max |lambda|).  The verdict is
    negative_definite when everything lies below the zero band,
    negative_semidefinite when the top of the spectrum sits inside it,
    and indefinite otherwise.  `blocks` (default: one) partitions the
    indices; C must be exactly zero off them, and each is certified alone,
    as ObstructionMatrix.blocks and scan do.  A failed check names the
    point of `params`, the one C was assembled at, as scan names its points.
    """
    C = np.asarray(C, dtype=float)
    if C.ndim != 2 or C.shape[0] != C.shape[1] or not C.size:
        raise ValueError("matrix must be square and nonempty")
    blocks = [np.arange(len(C))] if blocks is None else [np.asarray(b) for b in blocks]
    if not np.array_equal(np.sort(np.concatenate(blocks)), np.arange(len(C))):
        raise ValueError("blocks must partition the indices")
    entries, sizes = _packing(blocks, len(C))
    if np.any(np.delete(C.ravel(), entries) != 0):
        raise ValueError("matrix is not zero off its blocks")
    max_eig, nullity, verdict, evs = _certify(_stacks(C.ravel()[entries][None], sizes), zero_band,
                                              None if params is None else _point(params))
    return DefinitenessReport(eigenvalues=np.sort(np.concatenate([ev.ravel() for ev in evs])),
                              max_eigenvalue=float(max_eig[0]), nullity=int(nullity[0]),
                              verdict=str(verdict[0]))


def c2prime_diagnostics(params: CanonicalParams):
    """Spectrum of the shifted antisymmetric-sector block and its cubic.

    The block C2' = 2 (C2 + diag(mu nu, nu, mu, 1 + mu nu, mu^2 + nu,
    nu^2 + mu)) has an (at least) doubly degenerate spectrum; its three
    distinct eigenvalues define a cubic whose leading coefficient obeys
    b2 = 4 (1 + mu^2 + nu^2 + 2(h_x^2 + h_y^2 + h_z^2)).  Both facts are
    re-checked here and violations raise, since they signal a
    transcription bug rather than an interesting parameter point.
    """
    mu, nu, h = params.mu, params.nu, params.h
    if not (0.0 <= mu <= 1.0 and 0.0 <= nu <= 1.0):
        raise ValueError("anisotropies must lie in [0, 1]")
    A, At, B = _c2_blocks(mu, nu, h)
    C2 = np.block([[A, B.T], [B, At]])
    shift = np.diag([mu * nu, nu, mu, 1 + mu * nu, mu ** 2 + nu, nu ** 2 + mu])
    C2p = 2.0 * (C2 + shift)
    ev = np.linalg.eigvalsh(C2p)
    scale = 1.0 + float(np.abs(ev).max())
    gaps = ev[1::2] - ev[0::2]
    if np.abs(gaps).max() > DEGENERACY_TOL * scale:
        raise ArithmeticError(
            f"spectrum of C2' is not doubly degenerate (gap {np.abs(gaps).max():.3e})")
    lam = 0.5 * (ev[0::2] + ev[1::2])
    b2 = -float(lam.sum())
    b1 = float(lam[0] * lam[1] + lam[0] * lam[2] + lam[1] * lam[2])
    b0 = -float(lam[0] * lam[1] * lam[2])
    hx, hy, hz = h
    expected = 4.0 * (1 + mu ** 2 + nu ** 2 + 2 * (hx ** 2 + hy ** 2 + hz ** 2))
    if abs(b2 - expected) > B2_TOL * (1.0 + abs(expected)):
        raise ArithmeticError(f"b2 = {b2!r} deviates from {expected!r}")
    return ev, (b2, b1, b0)


# -- parameter scans ---------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ScanRow:
    mu: float
    nu: float
    hx: float
    hy: float
    hz: float
    max_eig: float
    nullity: int
    verdict: str


def family_grid(family: str, mu_axis=None, h_axis=None) -> list[tuple]:
    """Deterministic row-major grids for the four scanned model families."""
    mus = tuple(mu_axis) if mu_axis is not None else MU_AXIS
    hs = tuple(h_axis) if h_axis is not None else H_AXIS
    if family == "xyz":
        return [(mu, nu, 0.0, 0.0, 0.0) for mu in mus for nu in mus]
    if family == "ising-fields":
        return [(0.0, 0.0, 0.0, hy, hz) for hy in hs for hz in hs]
    if family == "xxz":
        return [(1.0, nu, 0.0, 0.0, hz) for nu in mus for hz in hs]
    if family == "xx-field":
        return [(1.0, 0.0, hx, 0.0, 0.0) for hx in hs]
    raise ValueError(f"unknown family: {family!r}")


def summarize_rows(r_gen: int, rows) -> dict:
    """Aggregate verdict counts and locate every semidefinite point."""
    counts = {"negative_definite": 0, "negative_semidefinite": 0, "indefinite": 0}
    semidefinite_points = []
    for row in rows:
        counts[row.verdict] += 1
        if row.verdict != "negative_definite":
            semidefinite_points.append((row.mu, row.nu, row.hx, row.hy, row.hz))
    on_line = all(abs(p[0]) < 1e-12 and abs(p[1]) < 1e-12
                  and abs(p[3]) < 1e-12 and abs(p[4]) < 1e-12
                  for p in semidefinite_points)
    return {
        "r_gen": r_gen,
        "points": len(rows),
        "counts": counts,
        "semidefinite_points": semidefinite_points,
        "semidefinite_only_on_ising_line": bool(on_line and not counts["indefinite"]),
    }


def scan(r_gen: int, grid) -> tuple[list[ScanRow], dict]:
    """Definiteness verdicts over a parameter grid, in grid order.

    Points are taken one weight pattern (which a_i a_j are nonzero) at a
    time: the pattern's blocks (_blocks) are found once, and its points go
    in passes of at most _CHUNK * 63**2 block entries.
    A pass sums each point's terms on its block entries only, then runs
    one eigensolve and one Cholesky confirmation per block size.  A row
    depends on its point alone: batched, alone, or as an obstruction report.

    The summary records every semidefinite point and whether all of them
    sit on the mu = nu = h_y = h_z = 0 line, the only place a width-2 or
    width-3 conserver is not excluded.
    """
    if r_gen not in (2, 3):
        raise ValueError("generator width must be 2 or 3")
    points = np.array([(mu, nu, hx, hy, hz) for mu, nu, hx, hy, hz in grid],
                      dtype=float).reshape(-1, 5)
    T = _polynomial(r_gen)
    w = _weights(points)
    patterns: dict[bytes, list[int]] = {}  # each pattern's points, in grid order
    for i, row in enumerate(w != 0):
        patterns.setdefault(row.tobytes(), []).append(i)
    max_eig, nullity = np.zeros(len(points)), np.zeros(len(points), dtype=int)
    verdict = np.empty(len(points), dtype=object)
    for key, members in patterns.items():
        terms = np.flatnonzero(np.frombuffer(key, dtype=bool))
        entries, sizes = _packing(_blocks(T, terms), T.shape[1])
        term_entries = _term_entries(T, terms, entries)
        per_pass = _CHUNK * 63 ** 2 // len(entries)  # whole points, at least four
        for at in np.array_split(np.array(members), -(-len(members) // per_pass)):
            C = _combine(w[at], term_entries, len(entries))
            max_eig[at], nullity[at], verdict[at], _ = _certify(
                _stacks(C, sizes), ZERO_BAND, points[at])
    rows = [ScanRow(*p, e, k, str(v))
            for p, e, k, v in zip(points.tolist(), max_eig.tolist(), nullity.tolist(), verdict)]
    return rows, summarize_rows(r_gen, rows)


def rows_to_csv(rows) -> str:
    out = ["mu,nu,hx,hy,hz,max_eig,nullity,verdict"]
    for r in rows:
        out.append(f"{r.mu:.6g},{r.nu:.6g},{r.hx:.6g},{r.hy:.6g},{r.hz:.6g},"
                   f"{r.max_eig:.12g},{r.nullity},{r.verdict}")
    return "\n".join(out) + "\n"
