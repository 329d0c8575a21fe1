"""Local Lindblad generators and their action on ring operators.

A generator with window width r consists of a Hermitian Hamiltonian h
on r sites and a dissipator given either in diagonal form (a list of
jump operators L_k) or in structure form (a Hermitian, positive
semidefinite coefficient matrix gamma over the non-identity Pauli
strings of the window).  Acting on an observable A it produces

    i [A, h] + sum_{j,k} gamma_{jk} ([P_j A, P_k] + [P_j, A P_k])

which in diagonal form reads i[A, h] + sum_k (2 L_k A L_k^dag
- {L_k^dag L_k, A}).  The same expression governs conservation:
A is conserved when the generator maps it to zero.
"""

from __future__ import annotations

import functools
import itertools
import re

import numpy as np

from .pauli import (
    _COMPLEX_RE,
    _REAL_RE,
    PauliOperator,
    _coefficient,
    _format_coeff,
    content_lines,
    format_operator,
    mul_strings,
    parse_operator,
    partial_trace,
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

    Indices follow all_strings(r).  Every entry comes from mul_strings, so
    the phases are exactly those of the string algebra.  Built on first
    use for each width; both arrays are read-only.
    """
    strings = all_strings(r)
    pos = {s: i for i, s in enumerate(strings)}
    products = [mul_strings(s, t) for s in strings for t in strings]
    phase = np.array([ph for ph, _ in products]).reshape(len(strings), -1)
    index = np.array([pos[u] for _, u in products]).reshape(phase.shape)
    phase.flags.writeable = False
    index.flags.writeable = False
    return phase, index


# the index of a window string in all_strings(r): its letters as base-4 digits
_DIGITS = str.maketrans("IXYZ", "0123")


def _window_sites(offset: int, r: int, n: int) -> tuple[int, ...]:
    return tuple((offset + i) % n for i in range(r))


def _splice(u: str, sites: tuple[int, ...], piece: str) -> str:
    chars = list(u)
    for w, ch in zip(sites, piece):
        chars[w] = ch
    return "".join(chars)


def _is_hermitian(g: np.ndarray, tol: float) -> bool:
    """|g - g^dag| within tol * max(1, max |g|): the bound scales with g, as in validate_psd."""
    return np.abs(g - g.conj().T).max() <= tol * max(1.0, np.abs(g).max())


def _null_space(A: np.ndarray, rcond: float) -> np.ndarray:
    """Orthonormal null space basis of A: the right singular vectors not in sv > rcond * max sv."""
    _, sv, vh = np.linalg.svd(A)
    return vh[np.count_nonzero(sv > rcond * sv.max()):].conj().T


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
    """Image of A under generators on window sites 0..r-1, as real functionals per row key.

    A ring string u reaches the strings piece + u[r:] through the window
    terms of its window piece u[:r].  Returns the keys and a real array
    whose row i is the coefficient of key i, a functional of (gamma, H)
    in real coordinates.  A must have real Pauli coefficients.  With
    reduce_rows the keys are translation class representatives.  Rows
    follow key insertion order, unless a `keys` mapping gives the row of
    each key it names (several may share one); other terms are dropped.
    Entries sum their terms in (string of A, window term) order.
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

    size = max(ids.values(), default=-1) + 1
    R = np.bincount(np.concatenate(flat), np.concatenate(weights), size * ncols)
    return list(ids), R.reshape(size, ncols)


class LindbladGenerator:
    """Window-local generator; exactly one of `lindblads` or `gamma` is set.

    All action reads the real coordinates of the structure form, [gamma_jj]
    [Re gamma_jk] [Im gamma_jk] (j < k) [Re H_j]: the image of a window
    string is its _real_column contracted with them.  A ring string is
    split into its window piece and the rest, and the piece is replaced by
    its image, made on first use and kept.
    """

    def __init__(self, r, hamiltonian=None, lindblads=None, gamma=None):
        self.r = int(r)
        if hamiltonian is None:
            hamiltonian = PauliOperator.zero(self.r)
        if hamiltonian.n != self.r:
            raise ValueError("hamiltonian window does not match r")
        if not hamiltonian.is_hermitian(1e-12):
            raise ValueError("hamiltonian must be Hermitian")
        self.hamiltonian = hamiltonian
        if (lindblads is None) == (gamma is None):
            raise ValueError("give either jump operators or a structure matrix")
        if lindblads is not None:
            self.form = "diagonal"
            self.lindblads = list(lindblads)
            for L in self.lindblads:
                if L.n != self.r:
                    raise ValueError("jump operator window does not match r")
            self.gamma = None
        else:
            self.form = "structure"
            g = np.asarray(gamma, dtype=complex)
            m = len(basis_strings(self.r))
            if g.shape != (m, m):
                raise ValueError(f"gamma must be {m}x{m} for r={self.r}")
            if not _is_hermitian(g, GAMMA_HERMITICITY_TOL):
                raise ValueError("gamma must be Hermitian")
            self.gamma = g
            self.lindblads = None
        self._coordinates = None
        self._images: dict[str, list[tuple[str, float]]] = {}

    # -- action -------------------------------------------------------------

    def _column(self, b: int) -> np.ndarray:
        """Amplitudes of the image of window string b on every window string."""
        if self._coordinates is None:
            s = to_structure(self)
            eta = [s.hamiltonian.terms.get(t, 0j) for t in basis_strings(self.r)]
            self._coordinates = np.concatenate([_gamma_to_vector(s.gamma, off=1.0), np.real(eta)])
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

    def unital_defect(self) -> PauliOperator:
        """Image of the window identity; zero exactly when the map is unital."""
        return self.apply(PauliOperator.identity(self.r))


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

    Null directions are singular vectors with singular value below
    tol times the largest singular value.
    """
    strings = all_strings(gen.r)
    return [PauliOperator(gen.r, dict(zip(strings, vec)))
            for vec in _null_space(superop_matrix(gen), tol).T]


def validate_psd(gen: LindbladGenerator) -> np.ndarray:
    """Eigenvalues of gamma, raising if any is below -GAMMA_PSD_TOL * max(1, max |eigenvalue|).

    The bound scales with gamma, as the rounding of a written and re-read
    gamma does.
    """
    if gen.form != "structure":
        raise ValueError("only structure-form generators carry gamma")
    w = np.linalg.eigvalsh(gen.gamma)
    if w.min() < -GAMMA_PSD_TOL * max(1.0, np.abs(w).max()):
        raise ValueError(f"gamma is not positive semidefinite (min eig {w.min():.3e})")
    return w


def diagonalize_structure(gen: LindbladGenerator) -> LindbladGenerator:
    """Equivalent diagonal form: jump operators from the eigenbasis of gamma.

    gamma is refused as validate_psd refuses it.  Every positive eigenvalue
    keeps its jump operator: one below the refusal bound may still be
    genuine, and dropping it would move the action by up to that bound.
    """
    if gen.form != "structure":
        raise ValueError("generator is already diagonal")
    validate_psd(gen)
    w, v = np.linalg.eigh(gen.gamma)
    basis = basis_strings(gen.r)
    ls = [PauliOperator(gen.r, dict(zip(basis, np.sqrt(w[k]) * v[:, k])))
          for k in np.flatnonzero(w > 0.0)]
    return LindbladGenerator(gen.r, hamiltonian=gen.hamiltonian, lindblads=ls)


def to_structure(gen: LindbladGenerator) -> LindbladGenerator:
    """Equivalent structure form.

    Identity components of jump operators act as Hamiltonian terms
    i(c0* L - c0 L^dag) and are folded into the Hamiltonian.
    """
    if gen.form == "structure":
        return gen
    basis = basis_strings(gen.r)
    g = np.zeros((len(basis), len(basis)), dtype=complex)
    h = gen.hamiltonian
    ident = "I" * gen.r
    for L in gen.lindblads:
        c = np.array([L.terms.get(s, 0j) for s in basis])
        g += np.outer(c, c.conj())
        c0 = L.terms.get(ident, 0j)
        if abs(c0) > 0:
            M = L - PauliOperator(gen.r, {ident: c0})
            h = h + 1j * (c0.conjugate() * M - c0 * M.dagger())
    return LindbladGenerator(gen.r, hamiltonian=h, gamma=g)


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
    sgen = to_structure(gen)
    labels = "IXYZ"
    # pad with the identity (window string 0); each string index splits into two letters
    g16 = np.zeros((16, 16), dtype=complex)
    g16[1:, 1:] = sgen.gamma
    g16 = g16.reshape(4, 4, 4, 4)  # (j, mu, k, lam)
    # contract the traced factor; tr(P_j P_j) = 2 fixes the weight
    g = 2.0 * np.einsum("amal->ml", g16)
    gamma_red = np.ascontiguousarray(g[1:, 1:])
    h_red = partial_trace(sgen.hamiltonian, (0,))
    extra = {}
    for lam in range(1, 4):
        w = 2.0 * g[0, lam].imag
        if abs(w) > 0:
            extra[labels[lam]] = extra.get(labels[lam], 0j) + w
    if extra:
        h_red = h_red + PauliOperator(1, extra)
    return LindbladGenerator(1, hamiltonian=h_red, gamma=gamma_red)


# -- file format ---------------------------------------------------------------

_SECTION_RE = re.compile(r"^\[(hamiltonian|lindblad|gamma)\]$")


def _parse_complex_token(tok: str) -> complex:
    """A decimal or an (a+bi) literal, the whole token and nothing else."""
    if m := _COMPLEX_RE.fullmatch(tok):
        return _coefficient(m.group(1), m.group(2))
    if _REAL_RE.fullmatch(tok):
        return _coefficient(tok)
    raise ValueError(f"bad matrix entry {tok!r}")


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
    sections: dict[str, list[str]] = {}
    current = None
    for _, raw, line in content_lines(text):
        m = _SECTION_RE.match(line)
        if m:
            current = m.group(1)
            sections.setdefault(current, [])
            continue
        if current is None:
            raise ValueError(f"content before any section header: {raw!r}")
        sections[current].append(line)
    if ("lindblad" in sections) == ("gamma" in sections):
        raise ValueError("need exactly one of [lindblad] or [gamma]")

    r = None
    hamiltonian = None
    if sections.get("hamiltonian"):
        hamiltonian = sum_operators(parse_operator(line) for line in sections["hamiltonian"])
        r = hamiltonian.n

    if "lindblad" in sections:
        if not sections["lindblad"]:
            raise ValueError("[lindblad] section is empty")
        ls = [parse_operator(line) for line in sections["lindblad"]]
        r = r if r is not None else ls[0].n
        if any(L.n != r for L in ls):
            raise ValueError("jump operators and hamiltonian disagree on window size")
        return LindbladGenerator(r, hamiltonian=hamiltonian, lindblads=ls)

    lines = sections["gamma"]
    if not lines:
        raise ValueError("[gamma] section is empty")
    order = None
    if lines[0].replace(" ", "").lower().startswith("order="):
        order = lines[0].split("=", 1)[1].split()
        lines = lines[1:]
    if order is None:
        if r is None:
            raise ValueError("cannot infer window size: give [hamiltonian] or an order line")
        order = basis_strings(r)
    else:
        r_try = len(order[0])
        if r is None:
            r = r_try
        if any(len(s) != r for s in order):
            raise ValueError("order strings disagree on window size")
    m = len(basis_strings(r))
    if len(order) != m or set(order) != set(basis_strings(r)):
        raise ValueError(f"order must list the {m} non-identity strings exactly once")
    rows = [[_parse_complex_token(tok) for tok in line.split()] for line in lines]
    if len(rows) != m or any(len(row) != m for row in rows):
        raise ValueError(f"gamma must have {m} rows of {m} entries")
    declared = np.array(rows, dtype=complex)
    # reorder into the canonical lexicographic basis
    perm = [order.index(s) for s in basis_strings(r)]
    gamma = declared[np.ix_(perm, perm)]
    gen = LindbladGenerator(r, hamiltonian=hamiltonian, gamma=gamma)
    validate_psd(gen)
    return gen


def format_generator_file(gen: LindbladGenerator) -> str:
    """Inverse of parse_generator_file."""
    out = []
    if gen.hamiltonian.num_terms:
        out.append("[hamiltonian]")
        out.append(format_operator(gen.hamiltonian))
    if gen.form == "diagonal":
        out.append("[lindblad]")
        for L in gen.lindblads:
            out.append(format_operator(L))
    else:
        out.append("[gamma]")
        out.append("order = " + " ".join(basis_strings(gen.r)))
        for row in gen.gamma:
            out.append(" ".join(_format_coeff(c) for c in row))
    return "\n".join(out) + "\n"
