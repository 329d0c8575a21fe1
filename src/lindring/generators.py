"""Local Lindblad generators and their action on ring operators.

A generator with window width r is a Hermitian Hamiltonian h on r sites
and a Hermitian, positive semidefinite structure matrix gamma over the
non-identity Pauli strings of the window.  Acting on an observable A it
produces

    i [A, h] + sum_{j,k} gamma_{jk} ([P_j A, P_k] + [P_j, A P_k])

Jump operators L_k are the same generator written in the eigenbasis of
gamma, i[A, h] + sum_k (2 L_k A L_k^dag - {L_k^dag L_k, A}); they are
read into (h, gamma) when the generator is made.  The same expression
governs conservation: A is conserved when the generator maps it to zero.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .pauli import (
    _COEFF_RE,
    _MUL1,
    PauliOperator,
    _coefficient,
    _format_coeff,
    _splice,
    format_operator,
    parse_operator,
    partial_trace,
    sections,
    sum_operators,
)

GAMMA_HERMITICITY_TOL = 1e-12
GAMMA_PSD_TOL = 1e-10
KERNEL_TOL = 1e-10


def all_strings(r: int) -> list[str]:
    """All Pauli strings on r sites, lexicographic, I < X < Y < Z, site 0 first."""
    return ["".join(t) for t in itertools.product("IXYZ", repeat=r)]


def basis_strings(r: int) -> list[str]:
    """The non-identity strings, in the same order; structure-form basis."""
    return [s for s in all_strings(r) if s != "I" * r]


@functools.cache
def product_table(r: int) -> tuple[np.ndarray, np.ndarray]:
    """Products of all r-site strings: P_a P_b = phase[a, b] P_c, c = index[a, b].

    Indices follow all_strings(r), so site i is the base-4 digit of weight
    4^(r-1-i).  The one-site products of mul_strings combine digit by
    digit, the phases multiplied from 1 + 0j in mul_strings's site order,
    so every entry is exactly that of the string algebra.  Built on first
    use for each width; both arrays are read-only.
    """
    phase1 = np.array([[_MUL1[a, b][0] for b in "IXYZ"] for a in "IXYZ"], dtype=complex)
    index1 = np.array([["IXYZ".index(_MUL1[a, b][1]) for b in "IXYZ"] for a in "IXYZ"])
    digits = (np.arange(4 ** r)[:, None] // 4 ** np.arange(r - 1, -1, -1) % 4).T  # site 0 first
    phase, index = np.ones((4 ** r, 4 ** r), dtype=complex), np.zeros((4 ** r, 4 ** r), dtype=int)
    for a, b in zip(digits[:, :, None], digits[:, None, :]):
        phase, index = phase * phase1[a, b], 4 * index + index1[a, b]
    phase.flags.writeable = False
    index.flags.writeable = False
    return phase, index


# the index of a window string in all_strings(r): its letters as base-4 digits
_DIGITS = str.maketrans("IXYZ", "0123")


def _window_sites(offset: int, r: int, n: int) -> tuple[int, ...]:
    return tuple((offset + i) % n for i in range(r))


def _is_hermitian(g: np.ndarray, tol: float) -> bool:
    """|g - g^dag| within tol * max(1, max |g|): the bound scales with g, as in validate_psd."""
    return np.abs(g - g.conj().T).max() <= tol * max(1.0, np.abs(g).max())


def _class_representative(s: str) -> str:
    return min(s[i:] + s[:i] for i in range(len(s)))


# -- real coordinates of (gamma, H) ----------------------------------------------
# [gamma_jj] [Re gamma_jk] [Im gamma_jk] (j < k) [H_j].  Packing scales the
# off-diagonal slots by sqrt2, an isometry for the Frobenius norm.


@functools.cache
def _upper_indices(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the strict upper triangle of an m x m gamma, made once per width."""
    iu, ju = np.triu_indices(m, 1)
    iu.flags.writeable = False
    ju.flags.writeable = False
    return iu, ju


@functools.cache
def _pairs(r: int) -> tuple[np.ndarray, ...]:
    """Window strings j, k of the gamma coordinates, and the string and phase of P_k P_j.

    The diagonal first, then j < k, then the same pairs as (k, j); basis
    string j is window string j + 1.  Made once per width, read-only.
    """
    phase, index = product_table(r)
    iu, ju = _upper_indices(4 ** r - 1)
    diag = np.arange(4 ** r - 1)
    j = 1 + np.concatenate([diag, iu, ju])
    k = 1 + np.concatenate([diag, ju, iu])
    table = (j, k, index[k, j], phase[k, j])
    for t in table:
        t.flags.writeable = False
    return table


def _gamma_to_vector(gamma: np.ndarray, off: float = np.sqrt(2.0)) -> np.ndarray:
    """Real coordinates of a Hermitian gamma; off-diagonal slots multiply by `off`."""
    upper = gamma[_upper_indices(gamma.shape[0])]
    return np.concatenate([np.real(np.diag(gamma)), off * upper.real, off * upper.imag])


def _vector_to_gamma(v: np.ndarray, m: int, off: float = np.sqrt(2.0)) -> np.ndarray:
    """Inverse of _gamma_to_vector over the last axis of v; off-diagonal slots divide by `off`.

    With off = 2, real image coordinates become the Hermitian Q of the
    same functional: c^dag Q c at gamma = c c^dag.
    """
    iu, ju = _upper_indices(m)
    m2 = iu.size
    gamma = np.zeros(v.shape[:-1] + (m, m), dtype=complex)
    gamma[..., np.arange(m), np.arange(m)] = v[..., :m]
    upper = (v[..., m:m + m2] + 1j * v[..., m + m2:m + 2 * m2]) / off
    gamma[..., iu, ju] = upper
    gamma[..., ju, iu] = upper.conj()
    return gamma


def _real_column(r: int, b: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nonzero terms of the image of window string b: vals[i] on string rows[i], coordinate cols[i].

    With unit gamma_jk the dissipator maps b to G_jk = 2 P_j b P_k -
    P_k P_j b - b P_k P_j (terms 0, 1, 2), each one product-table lookup;
    the Hamiltonian term H_m maps b to i[b, P_m].  A Hermitian gamma and a
    real H map Hermitian operators to real Pauli coefficients, and
    Re sum_jk gamma_jk G_jk reads Re G_jj on gamma_jj, Re (G_jk + G_kj) on
    Re gamma_jk and Im (G_kj - G_jk) on Im gamma_jk (j < k).  G_jk and
    G_kj land on one string, so each coordinate takes one small integer
    per term, exactly.  Entries run term by term, then the Hamiltonian.
    """
    phase, index = product_table(r)
    j, k, kj, phase_kj = _pairs(r)
    m = 4 ** r - 1
    p = m * (m + 1) // 2  # the diagonal and j < k; the (k, j) orders follow
    jb = index[j, b]
    rows = np.stack([index[jb, k], index[kj, b], index[b, kj]])
    vals = np.stack([2.0 * phase[j, b] * phase[jb, k],
                     -phase_kj * phase[kj, b],
                     -phase_kj * phase[b, kj]])
    up, lo = vals[:, m:p], vals[:, p:]
    vals = np.concatenate([vals[:, :m].real, (up + lo).real, (lo - up).imag], axis=1)
    # b P_m and P_m b are the same string
    rows = np.append(rows, index[b, 1:])
    cols = np.append(np.tile(np.arange(m * m), 3), m * m + np.arange(m))
    vals = np.append(vals, (phase[1:, b] - phase[b, 1:]).imag)
    nz = np.flatnonzero(vals)
    return rows[nz], cols[nz], vals[nz]


def _image_terms(r: int, A: PauliOperator, reduce_rows: bool, keys=None):
    """Image of A under generators on window sites 0..r-1, as sparse real functionals per row key.

    A ring string u reaches the strings piece + u[r:] through the window
    terms of its window piece u[:r].  Returns the keys and the nonzero
    entries (row, col, val), sorted by row, then column: val is the
    coefficient of (gamma, H) coordinate col, in real coordinates, on key
    row.  A must have real Pauli coefficients.  With reduce_rows the keys
    are translation class representatives.  Rows follow key insertion
    order, unless a `keys` mapping gives the row of each key it names
    (several may share one); other terms are dropped.  A stable sort
    groups the terms of each entry, so it sums them in (string of A,
    window term) order, as one dense bincount over every entry would.
    """
    strings = all_strings(r)
    ncols = len(strings) ** 2 - len(strings)
    ids = {} if keys is None else keys
    columns: dict[int, tuple] = {}
    flat, weights = [], []
    for u, coeff in A.terms.items():
        coeff = complex(coeff)
        if coeff.imag:
            raise ValueError("image coordinates need real coefficients")
        if not np.isfinite(coeff.real):
            raise OverflowError(f"coefficient of {u} is not finite")
        images = [piece + u[r:] for piece in strings]
        if reduce_rows:
            images = [_class_representative(key) for key in images]
        if keys is None:
            key_ids = np.array([ids.setdefault(key, len(ids)) for key in images])
        else:  # row -1 drops the term
            key_ids = np.array([keys.get(key, -1) for key in images])
        b = int(u[:r].translate(_DIGITS), 4)
        if b not in columns:
            columns[b] = _real_column(r, b)
        rows, cols, vals = columns[b]
        row = key_ids[rows]
        kept = row >= 0
        flat.append(row[kept] * ncols + cols[kept])
        weights.append(coeff.real * vals[kept])

    flat = np.concatenate(flat)
    order = np.argsort(flat, kind="stable")
    flat = flat[order]
    first = np.diff(flat, prepend=-1) != 0
    vals = np.bincount(np.cumsum(first) - 1, np.concatenate(weights)[order])
    flat, nonzero = flat[first], vals != 0
    return list(ids), flat[nonzero] // ncols, flat[nonzero] % ncols, vals[nonzero]


class LindbladGenerator:
    """Window-local generator (H, gamma), from a structure matrix or from jump operators.

    Jump operators L = c0 I + sum_j c_j P_j are read into gamma = sum c c^dag,
    and their identity parts, which act as Hamiltonian terms
    i(c0* M - c0 M^dag) with M = L - c0 I, are folded into H.  All action
    reads the real coordinates [gamma_jj] [Re gamma_jk] [Im gamma_jk]
    (j < k) [Re H_j]: the image of a window string is its _real_column
    contracted with them.  A ring string is split into its window piece
    and the rest, and the piece is replaced by its image, made on first
    use and kept.
    """

    def __init__(self, r, hamiltonian=None, lindblads=None, gamma=None):
        self.r = int(r)
        if hamiltonian is None:
            hamiltonian = PauliOperator.zero(self.r)
        if hamiltonian.n != self.r:
            raise ValueError("hamiltonian window does not match r")
        if (lindblads is None) == (gamma is None):
            raise ValueError("give either jump operators or a structure matrix")
        basis = basis_strings(self.r)
        m = len(basis)
        if lindblads is not None:
            gamma = np.zeros((m, m), dtype=complex)
            ident = "I" * self.r
            for L in lindblads:
                if L.n != self.r:
                    raise ValueError("jump operator window does not match r")
                c = np.array([L.terms.get(s, 0j) for s in basis])
                gamma += np.outer(c, c.conj())
                c0 = L.terms.get(ident, 0j)
                if abs(c0) > 0:
                    M = L - PauliOperator(self.r, {ident: c0})
                    hamiltonian = hamiltonian + 1j * (c0.conjugate() * M - c0 * M.dagger())
        # after the fold: a folded term that overflowed leaves a NaN imaginary part
        if not hamiltonian.is_hermitian(1e-12):
            raise ValueError("hamiltonian must be Hermitian")
        g = np.asarray(gamma, dtype=complex)
        if g.shape != (m, m):
            raise ValueError(f"gamma must be {m}x{m} for r={self.r}")
        if not _is_hermitian(g, GAMMA_HERMITICITY_TOL):
            raise ValueError("gamma must be Hermitian")
        self.hamiltonian = hamiltonian
        self.gamma = g
        eta = [hamiltonian.terms.get(t, 0j) for t in basis]
        self._coordinates = np.concatenate([_gamma_to_vector(g, off=1.0), np.real(eta)])
        self._images: dict[str, list[tuple[str, float]]] = {}

    # -- action -------------------------------------------------------------

    def _column(self, b: int) -> np.ndarray:
        """Amplitudes of the image of window string b on every window string."""
        rows, cols, vals = _real_column(self.r, b)
        return np.bincount(rows, vals * self._coordinates[cols], 4 ** self.r)

    def _image(self, piece: str) -> list[tuple[str, float]]:
        """Nonzero pieces of the image of a window string, made on first use and kept."""
        if piece not in self._images:
            column = self._column(int(piece.translate(_DIGITS), 4))
            strings = all_strings(self.r)
            self._images[piece] = [(strings[a], column[a].item()) for a in np.flatnonzero(column)]
        return self._images[piece]

    def _apply_on(self, rho: PauliOperator, sites: tuple[int, ...]) -> PauliOperator:
        out: dict[str, complex] = {}
        for u, c in rho.terms.items():
            for piece, amp in self._image("".join(u[w] for w in sites)):
                key = _splice(u, sites, piece)
                out[key] = out.get(key, 0j) + c * amp
        return PauliOperator._unchecked(rho.n, out)

    def apply(self, rho: PauliOperator, offset: int = 0) -> PauliOperator:
        """Generator embedded at `offset` acting on a ring operator."""
        if rho.n < self.r:
            raise ValueError("ring shorter than generator window")
        return self._apply_on(rho, _window_sites(offset, self.r, rho.n))

    def apply_at_sites(self, rho: PauliOperator, sites: tuple[int, ...]) -> PauliOperator:
        """Generator action with window site i placed at ring site sites[i]."""
        sites = tuple(s % rho.n for s in sites)
        if len(sites) != self.r or len(set(sites)) != self.r:
            raise ValueError("need as many distinct target sites as window sites")
        return self._apply_on(rho, sites)


def superop_matrix(gen: LindbladGenerator) -> np.ndarray:
    """Matrix of the generator in the full string basis of its window.

    Entry (m, k) is the string-m amplitude of the image of string k;
    strings ordered lexicographically with I < X < Y < Z.  Real, as the
    generator preserves Hermiticity.  Guarded to r <= 3.
    """
    if gen.r > 3:
        raise ValueError("superoperator matrix limited to r <= 3")
    return np.column_stack([gen._column(b) for b in range(4 ** gen.r)])


def kernel(gen: LindbladGenerator, tol: float = KERNEL_TOL) -> list[PauliOperator]:
    """Orthonormal basis of the generator's kernel on its window.

    Null directions are right singular vectors whose singular value is not
    above tol times the largest one.
    """
    _, sv, vh = np.linalg.svd(superop_matrix(gen))
    strings = all_strings(gen.r)
    return [PauliOperator(gen.r, dict(zip(strings, vec)))
            for vec in vh[np.count_nonzero(sv > tol * sv.max()):].conj()]


def validate_psd(gen: LindbladGenerator) -> np.ndarray:
    """Eigenvalues of gamma, raising if any is below -GAMMA_PSD_TOL * max(1, max |eigenvalue|).

    The bound scales with gamma, as the rounding of a written and re-read
    gamma does.
    """
    w = np.linalg.eigvalsh(gen.gamma)
    if w.min() < -GAMMA_PSD_TOL * max(1.0, np.abs(w).max()):
        raise ValueError(f"gamma is not positive semidefinite (min eig {w.min():.3e})")
    return w


def diagonalize_structure(gen: LindbladGenerator) -> list[PauliOperator]:
    """Jump operators of the eigenbasis of gamma: with gen.hamiltonian, the same generator.

    gamma is refused as validate_psd refuses it.  Every positive eigenvalue
    keeps its jump operator: one below the refusal bound may still be
    genuine, and dropping it would move the action by up to that bound.
    """
    validate_psd(gen)
    w, v = np.linalg.eigh(gen.gamma)
    basis = basis_strings(gen.r)
    return [PauliOperator(gen.r, dict(zip(basis, np.sqrt(w[k]) * v[:, k])))
            for k in np.flatnonzero(w > 0.0)]


def reduced_generator(gen: LindbladGenerator) -> LindbladGenerator:
    """One-site generator obtained by tracing out the first window site.

    Defined so that partial_trace(gen.apply(embed(1 x sigma)), site 0)
    equals red.apply(sigma) exactly: the reduced Hamiltonian is the
    partial trace of the Hamiltonian plus a correction from identity
    cross terms of the contracted structure matrix, and the reduced
    gamma is the weighted contraction of gamma over the traced factor.
    """
    if gen.r != 2:
        raise ValueError("reduction is defined for two-site generators")
    labels = "IXYZ"
    # pad with the identity (window string 0); each string index splits into two letters
    g16 = np.zeros((16, 16), dtype=complex)
    g16[1:, 1:] = gen.gamma
    g16 = g16.reshape(4, 4, 4, 4)  # (j, mu, k, lam)
    # contract the traced factor; tr(P_j P_j) = 2 fixes the weight
    g = 2.0 * np.einsum("amal->ml", g16)
    gamma_red = np.ascontiguousarray(g[1:, 1:])
    h_red = partial_trace(gen.hamiltonian, (0,))
    extra = {}
    for lam in range(1, 4):
        w = 2.0 * g[0, lam].imag
        if abs(w) > 0:
            extra[labels[lam]] = extra.get(labels[lam], 0j) + w
    if extra:
        h_red = h_red + PauliOperator(1, extra)
    return LindbladGenerator(1, hamiltonian=h_red, gamma=gamma_red)


# -- file format ---------------------------------------------------------------


def _matrix_entry(tok: str) -> complex:
    """A coefficient literal, the whole token and nothing else."""
    if not (m := _COEFF_RE.fullmatch(tok)):
        raise ValueError(f"bad matrix entry {tok!r}")
    return _coefficient(m)


def parse_generator_file(text: str) -> LindbladGenerator:
    """Read a generator description.

    Sections: [hamiltonian] with one operator expression per line
    (lines are summed), and either [lindblad] with one jump operator
    per line or [gamma] with an optional `order = <strings>` line
    followed by the rows of the structure matrix (entries are decimals
    or (a+bi) literals).  Non-finite coefficients and a structure matrix
    with an eigenvalue below -GAMMA_PSD_TOL * max(1, max |eigenvalue|) are
    refused.
    """
    found = sections(text, ("hamiltonian", "lindblad", "gamma"))
    if None in found:
        raise ValueError(f"content before any section header: {found[None][0][1]!r}")
    if ("lindblad" in found) == ("gamma" in found):
        raise ValueError("need exactly one of [lindblad] or [gamma]")
    lines = {name: [line for _, _, line in entries] for name, entries in found.items()}

    r = None
    hamiltonian = None
    if lines.get("hamiltonian"):
        hamiltonian = sum_operators(parse_operator(line) for line in lines["hamiltonian"])
        r = hamiltonian.n

    if "lindblad" in lines:
        if not lines["lindblad"]:
            raise ValueError("[lindblad] section is empty")
        ls = [parse_operator(line) for line in lines["lindblad"]]
        r = r if r is not None else ls[0].n
        if any(L.n != r for L in ls):
            raise ValueError("jump operators and hamiltonian disagree on window size")
        return LindbladGenerator(r, hamiltonian=hamiltonian, lindblads=ls)

    rows = lines["gamma"]
    if not rows:
        raise ValueError("[gamma] section is empty")
    order = None
    if rows[0].replace(" ", "").lower().startswith("order="):
        order = rows[0].split("=", 1)[1].split()
        rows = rows[1:]
    if order is None:
        if r is None:
            raise ValueError("cannot infer window size: give [hamiltonian] or an order line")
        order = basis_strings(r)
    elif not order:
        raise ValueError("order line lists no strings")
    else:
        if r is None:
            r = len(order[0])
        if any(len(s) != r for s in order):
            raise ValueError("order strings disagree on window size")
    m = len(basis_strings(r))
    if len(order) != m or set(order) != set(basis_strings(r)):
        raise ValueError(f"order must list the {m} non-identity strings exactly once")
    entries = [[_matrix_entry(tok) for tok in row.split()] for row in rows]
    if len(entries) != m or any(len(row) != m for row in entries):
        raise ValueError(f"gamma must have {m} rows of {m} entries")
    declared = np.array(entries, dtype=complex)
    # reorder into the canonical lexicographic basis
    perm = [order.index(s) for s in basis_strings(r)]
    gamma = declared[np.ix_(perm, perm)]
    gen = LindbladGenerator(r, hamiltonian=hamiltonian, gamma=gamma)
    validate_psd(gen)
    return gen


def format_generator_file(gen: LindbladGenerator) -> str:
    """A [hamiltonian] and [gamma] file that parse_generator_file reads back as gen."""
    out = []
    if gen.hamiltonian.num_terms:
        out.append("[hamiltonian]")
        out.append(format_operator(gen.hamiltonian))
    out.append("[gamma]")
    out.append("order = " + " ".join(basis_strings(gen.r)))
    for row in gen.gamma:
        out.append(" ".join(_format_coeff(c) for c in row))
    return "\n".join(out) + "\n"
