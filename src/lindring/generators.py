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
import scipy.linalg

from .pauli import (
    _DECIMAL,
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


def _window_column(r: int, b: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Terms of the image of window string b under unit generator parts.

    Returns (rows, vals, h_rows, h_vals).  rows[t, j, k] is the window
    string and vals[t, j, k] the value of term t of the dissipator with
    unit gamma_jk (basis strings j, k): 2 P_j b P_k, -P_k P_j b and
    -b P_k P_j for t = 0, 1, 2.  For every window string m, h_vals[:, m]
    holds the two halves i b P_m and -i P_m b of i[b, P_m], which both
    land on string h_rows[m].  Each term is one product-table lookup.
    """
    phase, index = product_table(r)
    m = np.arange(phase.shape[0])
    j = m[1:, None]  # basis string j is window string j + 1
    k = j.T
    jb, kj = index[j, b], index[k, j]
    rows = np.stack(np.broadcast_arrays(index[jb, k], index[kj, b], index[b, kj]))
    vals = np.stack([2.0 * phase[j, b] * phase[jb, k],
                     -phase[k, j] * phase[kj, b],
                     -phase[k, j] * phase[b, kj]])
    # b P_m and P_m b are the same string
    return rows, vals, index[b, m], np.stack([1j * phase[b, m], -1j * phase[m, b]])


def _window_matrix(gen: "LindbladGenerator") -> np.ndarray:
    """Entry (a, b): string-a amplitude of the structure-form image of string b.

    Column b contracts the window terms of b with the nonzero gamma_jk
    and the Hamiltonian amplitudes.
    """
    d = 4 ** gen.r
    pos = {s: i for i, s in enumerate(all_strings(gen.r))}
    j, k = np.nonzero(gen.gamma)
    g = gen.gamma[j, k]
    h = np.array([pos[s] for s in gen.hamiltonian.terms], dtype=int)
    eta = np.array(list(gen.hamiltonian.terms.values()), dtype=complex)
    M = np.zeros((d, d), dtype=complex)
    for b in range(d):
        rows, vals, h_rows, h_vals = _window_column(gen.r, b)
        terms = [(rows[t, j, k], g * vals[t, j, k]) for t in range(3)]
        terms.append((h_rows[h], eta * h_vals[:, h].sum(axis=0)))
        for a, v in terms:
            M[:, b] += np.bincount(a, v.real, d) + 1j * np.bincount(a, v.imag, d)
    return M


class LindbladGenerator:
    """Window-local generator; exactly one of `lindblads` or `gamma` is set.

    All action goes through one 4^r x 4^r window matrix, built from the
    structure form on first use and kept: a ring string is split into its
    window piece and the rest, and the piece is replaced by its image.
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
        self._window = None

    # -- action -------------------------------------------------------------

    def _window_action(self) -> tuple[np.ndarray, dict[str, list[tuple[str, complex]]]]:
        """The window matrix and, per window string, the nonzero pieces of its image."""
        if self._window is None:
            M = _window_matrix(to_structure(self))
            strings = all_strings(self.r)
            images = {
                s: [(strings[a], M[a, b].item()) for a in np.flatnonzero(M[:, b])]
                for b, s in enumerate(strings)
            }
            self._window = (M, images)
        return self._window

    def _apply_on(self, rho: PauliOperator, sites: tuple[int, ...]) -> PauliOperator:
        images = self._window_action()[1]
        out: dict[str, complex] = {}
        for u, c in rho.terms.items():
            for piece, amp in images["".join(u[w] for w in sites)]:
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
    strings ordered lexicographically with I < X < Y < Z.  Real for
    Hermiticity-preserving generators.  Guarded to r <= 3.
    """
    if gen.r > 3:
        raise ValueError("superoperator matrix limited to r <= 3")
    M = gen._window_action()[0]
    if np.abs(M.imag).max() < 1e-12:
        return np.ascontiguousarray(M.real)
    return M.copy()


def kernel(gen: LindbladGenerator, tol: float = KERNEL_TOL) -> list[PauliOperator]:
    """Orthonormal basis of the generator's kernel on its window.

    Null directions are singular vectors with singular value below
    tol times the largest singular value.
    """
    M = superop_matrix(gen)
    if not np.any(M):
        ns = np.eye(M.shape[0])
    else:
        ns = scipy.linalg.null_space(M, rcond=tol)
    strings = all_strings(gen.r)
    ops = []
    for col in range(ns.shape[1]):
        vec = ns[:, col]
        ops.append(PauliOperator(gen.r, {s: vec[i] for i, s in enumerate(strings)}))
    return ops


def validate_psd(gen: LindbladGenerator, tol: float = GAMMA_PSD_TOL) -> np.ndarray:
    """Eigenvalues of gamma, raising if any is below -tol * max(1, max |eigenvalue|).

    The bound scales with gamma, as the rounding of a written and re-read
    gamma does.
    """
    if gen.form != "structure":
        raise ValueError("only structure-form generators carry gamma")
    w = np.linalg.eigvalsh(gen.gamma)
    if w.min() < -tol * max(1.0, np.abs(w).max()):
        raise ValueError(f"gamma is not positive semidefinite (min eig {w.min():.3e})")
    return w


def diagonalize_structure(gen: LindbladGenerator, tol: float = GAMMA_PSD_TOL) -> LindbladGenerator:
    """Equivalent diagonal form: jump operators from the eigenbasis of gamma."""
    if gen.form != "structure":
        raise ValueError("generator is already diagonal")
    w, v = np.linalg.eigh(gen.gamma)
    if w.min() < -tol:
        raise ValueError(f"gamma is not positive semidefinite (min eig {w.min():.3e})")
    basis = basis_strings(gen.r)
    ls = []
    for k in range(len(w)):
        if w[k] <= tol:
            continue
        coeff = np.sqrt(w[k]) * v[:, k]
        ls.append(PauliOperator(gen.r, {s: coeff[i] for i, s in enumerate(basis)}))
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
_COMPLEX_TOKEN = re.compile(
    rf"^\(?\s*([+-]?{_DECIMAL})\s*(?:([+-]\s*{_DECIMAL})\s*i)?\s*\)?$"
)


def _parse_complex_token(tok: str) -> complex:
    m = _COMPLEX_TOKEN.match(tok.strip())
    if not m:
        raise ValueError(f"bad matrix entry {tok!r}")
    return _coefficient(m.group(1), m.group(2))


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
