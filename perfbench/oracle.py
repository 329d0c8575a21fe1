"""Independent arithmetic for the correctness gate.

Nothing here imports lindring.  Pauli strings become sparse permutation-
with-phase matrices on 2^n states, generators act by plain matrix
products, and the normalized Hilbert-Schmidt norm is the Frobenius norm
over sqrt(2^n).  The parsers read lindring's documented text formats
(operator expressions, generator files, scan CSV) from scratch.
"""

from __future__ import annotations

import itertools
import json
import re

import numpy as np
import scipy.sparse as sp

# -- Pauli strings as sparse matrices -----------------------------------------


def pauli_matrix(label: str) -> sp.csr_matrix:
    """Matrix of a Pauli string; site 0 is the most significant qubit."""
    n = len(label)
    dim = 1 << n
    x = z = 0
    ny = 0
    for i, ch in enumerate(label):
        bit = 1 << (n - 1 - i)
        if ch in "XY":
            x |= bit
        if ch in "YZ":
            z |= bit
        if ch == "Y":
            ny += 1
        if ch not in "IXYZ":
            raise ValueError(f"bad Pauli letter {ch!r}")
    cols = np.arange(dim)
    signs = 1 - 2 * (np.bitwise_count(cols & z) & 1).astype(np.int64)
    vals = (1j ** ny) * signs.astype(complex)
    return sp.csr_matrix((vals, (cols ^ x, cols)), shape=(dim, dim))


def operator_matrix(terms: dict[str, complex], n: int) -> sp.csr_matrix:
    dim = 1 << n
    out = sp.csr_matrix((dim, dim), dtype=complex)
    for label, c in terms.items():
        out = out + complex(c) * pauli_matrix(label)
    return out


def place(label: str, n: int, sites) -> str:
    """Ring string with window letter i at ring site sites[i]."""
    word = ["I"] * n
    for ch, s in zip(label, sites):
        word[s % n] = ch
    return "".join(word)


def window(offset: int, r: int) -> tuple[int, ...]:
    return tuple(offset + i for i in range(r))


def hs_norm(mat) -> float:
    """Norm in which Pauli strings are orthonormal."""
    if sp.issparse(mat):
        fro = float(np.sqrt((abs(mat.data) ** 2).sum())) if mat.nnz else 0.0
    else:
        fro = float(np.linalg.norm(mat))
    return fro / np.sqrt(mat.shape[0])


def window_strings(r: int) -> list[str]:
    """Non-identity window strings, lexicographic with I < X < Y < Z."""
    return ["".join(t) for t in itertools.product("IXYZ", repeat=r)][1:]


# -- generators ----------------------------------------------------------------


class Generator:
    """Window generator: Hamiltonian terms plus a Hermitian structure matrix."""

    def __init__(self, r: int, hamiltonian: dict[str, complex], gamma: np.ndarray):
        self.r = r
        self.hamiltonian = dict(hamiltonian)
        self.gamma = np.asarray(gamma, dtype=complex)
        m = len(window_strings(r))
        if self.gamma.shape != (m, m):
            raise ValueError(f"gamma must be {m}x{m}")
        # gamma = V diag(lam) V^dag turns the double sum into jump terms
        lam, vec = np.linalg.eigh(0.5 * (self.gamma + self.gamma.conj().T))
        keep = np.abs(lam) > 1e-15 * max(1.0, float(np.abs(lam).max(initial=0.0)))
        self.jumps = [(float(lam[k]), vec[:, k]) for k in np.flatnonzero(keep)]

    def placed(self, n: int, sites, like):
        """(h, [(lam, L)]) on the ring: Hamiltonian and weighted jump operators.

        Matrices are sparse, or dense when `like` is a dense array.
        """
        dense = not sp.issparse(like)

        def mat(label):
            P = pauli_matrix(place(label, n, sites))
            return P.toarray() if dense else P

        zero = 0 * like
        h = sum((complex(c) * mat(s) for s, c in self.hamiltonian.items()), zero)
        mats = [mat(s) for s in window_strings(self.r)]
        jumps = [(lam, sum((complex(c) * P for c, P in zip(v, mats) if c != 0), zero))
                 for lam, v in self.jumps]
        return h, jumps

    def action(self, A, n: int, sites):
        """Image of the ring operator matrix A under the generator on `sites`."""
        return act(A, *self.placed(n, sites, A))


def act(A, h, jumps):
    """i[A, h] + sum lam (2 L A L^dag - L^dag L A - A L^dag L)."""
    out = 1j * (A @ h - h @ A)
    for lam, L in jumps:
        Ld = L.conj().T
        LdL = Ld @ L
        out = out + lam * (2.0 * (L @ A @ Ld) - LdL @ A - A @ LdL)
    return out


def ring_sum(a: dict[str, complex], n: int) -> sp.csr_matrix:
    w = len(next(iter(a)))
    terms: dict[str, complex] = {}
    for j in range(n):
        for s, c in a.items():
            key = place(s, n, window(j, w))
            terms[key] = terms.get(key, 0j) + c
    return operator_matrix(terms, n)


def global_residual(gen: Generator, a: dict[str, complex], n: int) -> float:
    """|| sum_j L_j(sum_k a_k) || on the n-site ring.

    The commutator and anticommutator parts are linear in the summed
    Hamiltonian and in sum lam L^dag L, so only the sandwich terms are
    formed window by window.
    """
    A = ring_sum(a, n)
    H = 0 * A
    B = 0 * A
    sandwich = 0 * A
    for j in range(n):
        h, jumps = gen.placed(n, window(j, gen.r), A)
        H = H + h
        for lam, L in jumps:
            Ld = L.conj().T
            B = B + lam * (Ld @ L)
            sandwich = sandwich + lam * (L @ A @ Ld)
    return hs_norm(1j * (A @ H - H @ A) + 2.0 * sandwich - B @ A - A @ B)


def local_residual(gen: Generator, a: dict[str, complex], n: int) -> float:
    """max_k || L_0(a_k) ||, each evaluated on the sites the two windows cover.

    The normalized norm does not see identity factors, so restricting to
    the union of the two windows gives the ring value exactly.
    """
    w = len(next(iter(a)))
    worst = 0.0
    for k in range(n):
        gsites = [s % n for s in window(0, gen.r)]
        asites = [s % n for s in window(k, w)]
        union = sorted(set(gsites) | set(asites))
        pos = {s: i for i, s in enumerate(union)}
        u = len(union)
        A = operator_matrix({place(s, u, [pos[x] for x in asites]): c for s, c in a.items()}, u)
        img = gen.action(A.toarray(), u, [pos[x] for x in gsites])
        worst = max(worst, hs_norm(img))
    return worst


def superoperator(gen: Generator) -> np.ndarray:
    """Dense 4^r x 4^r matrix of the window action in the full string basis."""
    r = gen.r
    labels = ["I" * r] + window_strings(r)
    paulis = np.array([pauli_matrix(s).toarray() for s in labels])
    parts = gen.placed(r, window(0, r), paulis[0])
    images = np.array([act(P, *parts) for P in paulis])
    # coefficient of string t in image k is tr(P_t image_k) / 2^r
    return np.einsum("tij,kji->tk", paulis, images) / (1 << r)


# -- lindring text formats -------------------------------------------------------

_TERM = re.compile(
    r"([+-]?)(?:\(([^()]*)\)|([0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?))?\*?([IXYZ]+)")


def parse_operator(text: str) -> dict[str, complex]:
    s = re.sub(r"\s+", "", text)
    terms: dict[str, complex] = {}
    pos = 0
    while pos < len(s):
        m = _TERM.match(s, pos)
        if not m or m.end() == pos:
            raise ValueError(f"bad operator text at column {pos}: {text!r}")
        sign, cplx, real, label = m.groups()
        c = complex(cplx.replace("i", "j")) if cplx else complex(float(real) if real else 1.0)
        terms[label] = terms.get(label, 0j) + (-c if sign == "-" else c)
        pos = m.end()
    return terms


def parse_generator(text: str) -> Generator:
    """Read a [hamiltonian] + [gamma] generator file (the form lindring emits)."""
    sections: dict[str, list[str]] = {}
    current = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1]
            sections[current] = []
        elif current is None:
            raise ValueError("content before a section header")
        else:
            sections[current].append(line)
    if "gamma" not in sections:
        raise ValueError("generator has no [gamma] section")
    lines = sections["gamma"]
    order = lines[0].split("=", 1)[1].split()
    r = len(order[0])
    canon = window_strings(r)
    rows = np.array([[complex(tok.strip("()").replace("i", "j")) for tok in ln.split()]
                     for ln in lines[1:]])
    perm = [order.index(s) for s in canon]
    gamma = rows[np.ix_(perm, perm)]
    ham: dict[str, complex] = {}
    for ln in sections.get("hamiltonian", []):
        for s, c in parse_operator(ln).items():
            ham[s] = ham.get(s, 0j) + c
    return Generator(r, ham, gamma)


def format_generator(gen: Generator) -> str:
    def entry(c):
        return f"({c.real!r}{'+' if c.imag >= 0 else '-'}{abs(c.imag)!r}i)"

    labels = window_strings(gen.r)
    out = []
    if gen.hamiltonian:
        out += ["[hamiltonian]",
                " + ".join(f"{entry(complex(c))}*{s}" for s, c in gen.hamiltonian.items())]
    out += ["[gamma]", "order = " + " ".join(labels)]
    out += [" ".join(entry(complex(c)) for c in row) for row in gen.gamma]
    return "\n".join(out) + "\n"


def parse_density(text: str) -> dict[str, complex]:
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    terms: dict[str, complex] = {}
    for ln in lines[1:]:
        for s, c in parse_operator(ln).items():
            terms[s] = terms.get(s, 0j) + c
    return terms


def parse_scan_csv(text: str) -> tuple[dict, list[dict]]:
    """(summary, rows) of a scan report."""
    summary = None
    body = []
    for line in text.splitlines():
        if line.startswith("# summary:"):
            summary = json.loads(line.split(":", 1)[1])
        elif line and not line.startswith("#"):
            body.append(line)
    if summary is None or not body:
        raise ValueError("scan report lacks a summary or a table")
    head = body[0].split(",")
    rows = [dict(zip(head, ln.split(","))) for ln in body[1:]]
    if any(len(row) != len(head) for row in rows):
        raise ValueError("ragged scan row")
    return summary, rows
