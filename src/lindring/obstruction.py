"""Obstruction matrices for ring-sum conservation by dissipative generators.

Whether a width-r generator can conserve the ring sum of the canonical
density a = XX + mu YY + nu ZZ + w1 + 1w is decided by a finite family
of quadratic forms.  Each translation class of Pauli strings defines a
linear functional on the image of the summed density; expanding a
single unknown Lindblad operator L = sum_j c_j P_j and a window
Hamiltonian sum_m d_m Q_m turns the functional into c^dag Q c plus a
real linear term in d.  The forms are extracted numerically on a ring
long enough that a window cannot meet its own periodic image.

Combining the six primitive projections with weights
(1, mu, nu, 2h_x, 2h_y, 2h_z) cancels the Hamiltonian term
identically.  The combination is Hermitian; its imaginary part is pure
gauge spanned by the unitality forms (the freedom of adding a
divergence to the window identity image), and its real part is the
obstruction matrix C.  When C is negative definite, no generator of
that width with a nonzero dissipative part conserves the density.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .generators import (
    _splice, _window_column, _window_sites, all_strings, basis_strings, product_table)
from .pauli import PauliOperator
from .rings import CanonicalParams, assemble_sum, safe_ring_length

D_CANCEL_TOL = 1e-9
GAUGE_TOL = 1e-9
ZERO_BAND = 1e-9
DEGENERACY_TOL = 1e-8
B2_TOL = 1e-10

NAMED_PATTERNS = ("xx", "yy", "zz", "x", "y", "z")
_PATTERN_STRINGS = {"xx": "XX", "yy": "YY", "zz": "ZZ", "x": "X", "y": "Y", "z": "Z"}

MU_AXIS = tuple(round(0.05 * k, 2) for k in range(21))
H_AXIS = (-2.0, -1.0, -0.5, -0.1, 0.0, 0.1, 0.5, 1.0, 2.0)

_CHUNK = 4  # grid points per stacked scan pass; larger chunks raise peak memory


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
    C: np.ndarray
    basis: str
    params: CanonicalParams
    gauge_residual: float = 0.0


@dataclass(frozen=True, eq=False)
class DefinitenessReport:
    eigenvalues: np.ndarray
    max_eigenvalue: float
    nullity: int
    verdict: str
    sylvester_minors: np.ndarray | None = None


# -- projection equations ----------------------------------------------------


def _component_ring_terms(n: int) -> dict[str, dict[str, complex]]:
    """Ring sums of the six density components, as coefficient tables."""
    comps = {
        "xx": {"XX": 1.0}, "yy": {"YY": 1.0}, "zz": {"ZZ": 1.0},
        "x": {"XI": 1.0, "IX": 1.0}, "y": {"YI": 1.0, "IY": 1.0},
        "z": {"ZI": 1.0, "IZ": 1.0},
    }
    return {name: assemble_sum(PauliOperator(2, terms), n).terms
            for name, terms in comps.items()}


def _pattern_forms(pattern: str, n: int, r: int):
    """Q and l tables of one pattern projection against all six components.

    A window at offset s maps a ring string u to L_W(u_W) (x) u_rest, so
    u reaches the pattern only when its letters off the window match, and
    then through the terms of the window column of u_W that land on the
    pattern's window piece.  Tables are stacked in component order.
    """
    m = 4 ** r - 1
    pos = {s: i for i, s in enumerate(all_strings(r))}
    comps = _component_ring_terms(n)
    Qs = np.zeros((len(comps), m, m), dtype=complex)
    ls = np.zeros((len(comps), m), dtype=complex)
    blank = "I" * r
    for s in range(n):
        sites = _window_sites(s, r, n)
        rest = _splice(pattern, sites, blank)
        row = pos["".join(pattern[w] for w in sites)]
        for c, terms in enumerate(comps.values()):
            for u, coeff in terms.items():
                if _splice(u, sites, blank) != rest:
                    continue
                rows, vals, h_rows, h_vals = _window_column(r, pos["".join(u[w] for w in sites)])
                Qs[c] += coeff * np.where(rows == row, vals, 0).sum(axis=0)
                ls[c] += coeff * np.where(h_rows == row, h_vals, 0).sum(axis=0)[1:]
    # adjoint bookkeeping: the form acts on c from both sides
    return np.ascontiguousarray(Qs.transpose(0, 2, 1)), ls


@functools.cache
def _named_forms(r_gen: int) -> tuple[np.ndarray, np.ndarray]:
    """The six named-pattern tables of one width, stacked (pattern, component, ...)."""
    n, m = safe_ring_length(r_gen, 2), 4 ** r_gen - 1
    Q, l = np.empty((6, 6, m, m), dtype=complex), np.empty((6, 6, m), dtype=complex)
    for i, p in enumerate(NAMED_PATTERNS):
        Q[i], l[i] = _pattern_forms(_PATTERN_STRINGS[p].ljust(n, "I"), n, r_gen)
    return Q, l


def _weights(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Density weights (1, mu, nu, h) and combination weights (1, mu, nu, 2h), one column per point."""
    w = np.vstack([np.ones(len(points)), points.T])
    return w, w * np.array([1.0, 1.0, 1.0, 2.0, 2.0, 2.0])[:, None]


def _require(ok, exc, points, message: str, values=None) -> None:
    """Raise exc for the first point where `ok` fails, naming that grid point.

    Checks are written as value <= bound, so a NaN value fails them.
    """
    if not ok.all():
        i = int(np.argmin(ok))
        if values is not None:
            message += f" ({values[i]:.3e})"
        if points is not None:
            message += f" at (mu, nu, hx, hy, hz) = {tuple(points[i].tolist())}"
        raise exc(message)


def _pattern_sum(w: np.ndarray, Qs: np.ndarray, ls: np.ndarray, points: np.ndarray):
    """One pattern's form at a stack of points: sum_c w_c Q_c and the real sum_c w_c l_c.

    Terms are added to zero in component order, as for one point alone; a real
    weight scaling both parts apart then equals the complex product bit for bit.
    """
    Q = np.zeros((len(points),) + Qs.shape[1:], dtype=complex)
    Qf = Q.view(float)
    for wc, Qc in zip(w, Qs):
        Qf += wc[:, None, None] * Qc.view(float)
    l = sum(wc[:, None] * lc for wc, lc in zip(w, ls))
    _require(np.abs(l.imag).max(axis=1) <= 1e-12, ArithmeticError, points,
             "Hamiltonian functional is not real")
    return Q, l.real


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
    point = _point(params)
    basis = tuple(basis_strings(r_gen))
    n = safe_ring_length(r_gen, 2)
    w, _ = _weights(point)
    out = {}
    for pat in NAMED_PATTERNS if patterns is None else patterns:
        string = _PATTERN_STRINGS.get(pat, pat.upper())
        if not string or string.strip("IXYZ"):
            raise ValueError(f"bad pattern string: {pat!r}")
        if string.lower() in NAMED_PATTERNS:
            Qs, ls = (t[NAMED_PATTERNS.index(string.lower())] for t in _named_forms(r_gen))
        else:
            Qs, ls = _pattern_forms(string.ljust(n, "I"), n, r_gen)
        Q, l = _pattern_sum(w, Qs, ls, point)
        out[pat] = QuadraticForm(name=pat, basis=basis, Q=Q[0], d_linear=l[0])
    return out


# -- unitality forms ---------------------------------------------------------


def _unitality_patterns(r_gen: int) -> dict[str, dict[str, float]]:
    ax = "XYZ"
    pats: dict[str, dict[str, float]] = {}
    if r_gen == 2:
        for a in ax:
            pats[2 * a.lower()] = {a + a: 1.0}
        for a, b in (("X", "Y"), ("X", "Z"), ("Y", "Z")):
            pats[(a + b).lower()] = {a + b: 1.0, b + a: 1.0}
        for a in ax:
            pats[a.lower()] = {a + "I": 1.0, "I" + a: 1.0}
        return pats
    # width 3: full windows, gapped windows, and placement sums
    for a, b, c in itertools.product(ax, repeat=3):
        pats[(a + b + c).lower()] = {a + b + c: 1.0}
    for a, b in itertools.product(ax, repeat=2):
        pats[f"{a.lower()}_{b.lower()}"] = {a + "I" + b: 1.0}
    for a, b in itertools.product(ax, repeat=2):
        pats[(a + b).lower()] = {a + b + "I": 1.0, "I" + a + b: 1.0}
    for a in ax:
        pats[a.lower()] = {a + "II": 1.0, "I" + a + "I": 1.0, "II" + a: 1.0}
    return pats


def unitality_forms(r_gen: int) -> dict[str, QuadraticForm]:
    """Quadratic forms of the window identity image, projected per class.

    These measure 2<pattern|[P_j, P_k]> and vanish on every generator
    whose identity image is a divergence, which is exactly the class a
    translation invariant conserver may use.  They are purely imaginary
    and carry no Hamiltonian part.
    """
    if r_gen not in (2, 3):
        raise ValueError("generator width must be 2 or 3")
    basis = tuple(basis_strings(r_gen))
    zero_d = np.zeros(len(basis))
    pos = {s: i for i, s in enumerate(all_strings(r_gen))}
    phase, index = product_table(r_gen)
    # P_j P_k and P_k P_j are the same string, so one lookup serves both
    ph, prod = phase[1:, 1:], index[1:, 1:]
    forms = {}
    for name, terms in _unitality_patterns(r_gen).items():
        coeff = np.zeros(len(pos))
        for s, c in terms.items():
            coeff[pos[s]] = c
        w = coeff[prod]
        U = np.where(w != 0, 2.0 * w * ph - 2.0 * w * ph.T, 0.0)
        forms[name] = QuadraticForm(name=name, basis=basis, Q=U.T, d_linear=zero_d)
    return forms


@functools.cache
def _gauge_projection(r_gen: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauge columns Im U.ravel() of the unitality forms and their Gram pseudo-inverse."""
    cols = np.column_stack([f.Q.imag.ravel() for f in unitality_forms(r_gen).values()])
    return cols, np.linalg.pinv(cols.T @ cols, hermitian=True)


# -- assembly ----------------------------------------------------------------


# overflow is caught by the finiteness check, which names the point
@np.errstate(over="ignore", invalid="ignore")
def _assemble(r_gen: int, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Obstruction matrices and gauge residuals at a stack of (mu, nu, hx, hy, hz) points.

    Sums run in one-point order, so each matrix is bit-identical to its point's alone.
    """
    w, cw = _weights(points)
    Ct = np.zeros((len(points), 4 ** r_gen - 1, 4 ** r_gen - 1), dtype=complex)
    Ctf = Ct.view(float)
    lc = term_max = 0.0
    for c, Qs, ls in zip(cw, *_named_forms(r_gen)):
        Q, l = _pattern_sum(w, Qs, ls, points)
        Ctf += c[:, None, None] * Q.view(float)
        term = c[:, None] * l
        lc = lc + term
        term_max = np.maximum(term_max, np.abs(term).max(axis=1))
    lc_max = np.abs(lc).max(axis=1)
    scale = np.abs(Ct).max(axis=(1, 2))
    # the imaginary part must lie in the span of the unitality forms
    cols, gram_inv = _gauge_projection(r_gen)
    target = Ct.imag.reshape(len(points), -1)
    gauge = np.abs(target - (target @ cols) @ gram_inv @ cols.T).max(axis=1)
    # finite parameters can still overflow the quadratic weights
    _require(np.isfinite(lc_max) & np.isfinite(scale) & np.isfinite(gauge), OverflowError,
             points, "obstruction matrix is not finite")
    # the cancelling terms set the rounding scale, not the forms alone
    _require(lc_max <= D_CANCEL_TOL * (1.0 + term_max), ArithmeticError, points,
             "Hamiltonian part failed to cancel", lc_max)
    _require(gauge <= GAUGE_TOL * (1.0 + scale), ArithmeticError,
             points, "imaginary part not spanned by unitality forms", gauge)
    C = 0.5 * (Ct.real + Ct.real.swapaxes(1, 2))
    if r_gen == 2:
        S = combination_matrix()
        C = S.T @ C @ S
        C = 0.5 * (C + C.swapaxes(1, 2))
    return C, gauge


# combination basis: 9 symmetric then 6 antisymmetric pairings, unit norm
_COMBINATION_COLUMNS = (
    (("XX", 1),), (("YY", 1),), (("ZZ", 1),),
    (("IX", 1), ("XI", 1)), (("IY", 1), ("YI", 1)), (("IZ", 1), ("ZI", 1)),
    (("ZY", 1), ("YZ", 1)), (("ZX", 1), ("XZ", 1)), (("YX", 1), ("XY", 1)),
    (("IX", 1), ("XI", -1)), (("IY", 1), ("YI", -1)), (("IZ", 1), ("ZI", -1)),
    (("ZY", 1), ("YZ", -1)), (("XZ", 1), ("ZX", -1)), (("YX", 1), ("XY", -1)),
)


def combination_matrix() -> np.ndarray:
    """Unit-norm change of basis from primitive two-site strings."""
    basis = basis_strings(2)
    idx = {s: i for i, s in enumerate(basis)}
    S = np.zeros((len(basis), len(_COMBINATION_COLUMNS)))
    for col, spec in enumerate(_COMBINATION_COLUMNS):
        for lab, sgn in spec:
            S[idx[lab], col] = sgn
        S[:, col] /= np.linalg.norm(S[:, col])
    return S


def assemble_C_2site(params: CanonicalParams) -> ObstructionMatrix:
    """Obstruction matrix of a width-2 generator, in the combination basis."""
    C, gauge = _assemble(2, _point(params))
    return ObstructionMatrix(
        C=C[0], basis="two-site combinations: 9 symmetric + 6 antisymmetric, unit norm",
        params=params, gauge_residual=float(gauge[0]))


def assemble_C_3site(params: CanonicalParams) -> ObstructionMatrix:
    """Obstruction matrix of a width-3 generator, over the 63 window strings."""
    C, gauge = _assemble(3, _point(params))
    return ObstructionMatrix(
        C=C[0], basis="primitive three-site window strings (63)",
        params=params, gauge_residual=float(gauge[0]))


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


def _factors(A: np.ndarray) -> bool:
    """Whether the Cholesky factorization of A succeeds."""
    try:
        np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        return False
    return True


def _certify(C: np.ndarray, zero_band: float, points=None) -> list[DefinitenessReport]:
    """Verdicts for a stack of square matrices, one stacked eigensolve."""
    scale = 1.0 + np.abs(C).max(axis=(1, 2))
    _require(np.isfinite(scale), OverflowError, points, "matrix is not finite")
    _require(np.abs(C - C.swapaxes(1, 2)).max(axis=(1, 2)) <= 1e-12 * scale, ValueError,
             points, "matrix is not symmetric")
    S = 0.5 * (C + C.swapaxes(1, 2))
    ev = np.linalg.eigvalsh(S)
    max_eig = ev[:, -1]
    tol = zero_band * (1.0 + np.abs(ev).max(axis=1))
    nullity = np.sum(np.abs(ev) < tol[:, None], axis=1)
    verdict = np.where(max_eig >= tol, "indefinite",
                       np.where(max_eig > -tol, "negative_semidefinite", "negative_definite"))
    # a definite verdict leaves half the zero band of margin, far above the
    # rounding of a Cholesky factorization: -C - tol/2 factors when C is
    # negative definite, and -C + tol/2 does not when C is indefinite
    definite = verdict == "negative_definite"
    shift = np.where(definite, 0.5, -0.5) * tol
    eye = np.eye(C.shape[1])
    agree = [verdict[i] == "negative_semidefinite"
             or _factors((-S[i] - shift[i] * eye) / scale[i]) == definite[i]
             for i in range(len(C))]
    _require(np.array(agree), ArithmeticError, points,
             "eigenvalue verdict fails its Cholesky check")
    minors = [None] * len(C)
    if C.shape[1] <= 15:
        k = np.arange(1, C.shape[1] + 1)
        norm = np.maximum(1.0, np.abs(C).max(axis=(1, 2)))
        # minors of C / norm, as those of C overflow; one below the float range reads 0
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            unit = np.stack([np.linalg.det(C[:, :j, :j] / norm[:, None, None]) for j in k], axis=1)
            minors = unit * norm[:, None] ** k  # the minors of C; not finite where they overflow
    return [DefinitenessReport(eigenvalues=ev[i], max_eigenvalue=float(max_eig[i]),
                               nullity=int(nullity[i]), verdict=str(verdict[i]),
                               sylvester_minors=minors[i]) for i in range(len(C))]


def certify_definiteness(C: np.ndarray, zero_band: float = ZERO_BAND) -> DefinitenessReport:
    """Eigenvalue verdict, confirmed by a Cholesky factorization when definite.

    Zero means |lambda| < zero_band * (1 + max |lambda|).  The verdict is
    negative_definite when everything lies below the zero band,
    negative_semidefinite when the top of the spectrum sits inside it,
    and indefinite otherwise.
    """
    C = np.asarray(C, dtype=float)
    if C.ndim != 2 or C.shape[0] != C.shape[1] or not C.size:
        raise ValueError("matrix must be square and nonempty")
    return _certify(C[None], zero_band)[0]


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


def scan_point(r_gen: int, point, zero_band: float = ZERO_BAND) -> ScanRow:
    """Definiteness verdict at a single grid point."""
    return scan(r_gen, [point], zero_band=zero_band)[0][0]


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


def scan(r_gen: int, grid, zero_band: float = ZERO_BAND) -> tuple[list[ScanRow], dict]:
    """Definiteness verdicts over a parameter grid, in grid order.

    Points are assembled and certified in stacked chunks of _CHUNK: one
    broadcast assembly, one gauge projection and one eigensolve each.

    The summary records every semidefinite point and whether all of them
    sit on the mu = nu = h_y = h_z = 0 line, the only place a width-2 or
    width-3 conserver is not excluded.
    """
    if r_gen not in (2, 3):
        raise ValueError("generator width must be 2 or 3")
    points = np.array([(mu, nu, hx, hy, hz) for mu, nu, hx, hy, hz in grid],
                      dtype=float).reshape(-1, 5)
    rows = []
    for start in range(0, len(points), _CHUNK):
        chunk = points[start:start + _CHUNK]
        C, _ = _assemble(r_gen, chunk)
        rows += [ScanRow(*p, rep.max_eigenvalue, rep.nullity, rep.verdict)
                 for p, rep in zip(chunk.tolist(), _certify(C, zero_band, chunk))]
    return rows, summarize_rows(r_gen, rows)


def rows_to_csv(rows) -> str:
    out = ["mu,nu,hx,hy,hz,max_eig,nullity,verdict"]
    for r in rows:
        out.append(f"{r.mu:.6g},{r.nu:.6g},{r.hx:.6g},{r.hy:.6g},{r.hz:.6g},"
                   f"{r.max_eig:.12g},{r.nullity},{r.verdict}")
    return "\n".join(out) + "\n"
