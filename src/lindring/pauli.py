"""Sparse operator algebra over Pauli strings on a spin-1/2 ring.

Operators are stored as dictionaries mapping Pauli strings (words over
I, X, Y, Z; site 0 is the leftmost letter) to complex amplitudes.
Products of primitive strings are again primitive strings up to a phase
in {1, -1, 1j, -1j}, so all algebra is exact for integer and dyadic
amplitudes.  The Hilbert-Schmidt inner product is normalized so that
primitive strings are orthonormal.
"""

from __future__ import annotations

import cmath
import functools
import re

import numpy as np

LABELS = "IXYZ"
_LABEL_SET = frozenset(LABELS)

# amplitudes below this are dropped after arithmetic
PRUNE_TOL = 1e-14

# single-site products: (a, b) -> (phase, a*b)
_MUL1 = {
    ("I", "I"): (1, "I"), ("I", "X"): (1, "X"), ("I", "Y"): (1, "Y"), ("I", "Z"): (1, "Z"),
    ("X", "I"): (1, "X"), ("Y", "I"): (1, "Y"), ("Z", "I"): (1, "Z"),
    ("X", "X"): (1, "I"), ("Y", "Y"): (1, "I"), ("Z", "Z"): (1, "I"),
    ("X", "Y"): (1j, "Z"), ("Y", "X"): (-1j, "Z"),
    ("Y", "Z"): (1j, "X"), ("Z", "Y"): (-1j, "X"),
    ("Z", "X"): (1j, "Y"), ("X", "Z"): (-1j, "Y"),
}

_DENSE1 = {
    "I": np.array([[1, 0], [0, 1]], dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def mul_strings(s: str, t: str) -> tuple[complex, str]:
    """Product of two primitive strings: returns (phase, string)."""
    phase = 1 + 0j
    out = []
    for a, b in zip(s, t):
        p, c = _MUL1[(a, b)]
        phase *= p
        out.append(c)
    return phase, "".join(out)


def _pruned(terms: dict[str, complex]) -> dict[str, complex]:
    """The terms above PRUNE_TOL.  NaN, left by an overflow, is kept for hs_norm to refuse."""
    return {s: c for s, c in terms.items() if not abs(c) <= PRUNE_TOL}


def _splice(u: str, sites: tuple[int, ...], piece: str) -> str:
    """u with the letters of piece written at the given ring sites."""
    chars = list(u)
    for w, ch in zip(sites, piece):
        chars[w] = ch
    return "".join(chars)


class PauliOperator:
    """An operator on an n-site ring, sparse in the Pauli-string basis."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict[str, complex] | None = None):
        self.n = int(n)
        terms = terms or {}
        for s in terms:
            if len(s) != self.n or not _LABEL_SET.issuperset(s):
                raise ValueError(f"bad Pauli string {s!r} for n={self.n}")
        self.terms = _pruned({s: complex(c) for s, c in terms.items()})

    @classmethod
    def _unchecked(cls, n: int, terms: dict[str, complex]) -> "PauliOperator":
        # internal arithmetic: strings are valid by construction
        op = cls.__new__(cls)
        op.n = n
        op.terms = _pruned(terms)
        return op

    # -- construction ------------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "PauliOperator":
        return cls(n, {})

    @classmethod
    def identity(cls, n: int) -> "PauliOperator":
        return cls(n, {"I" * n: 1.0})

    @classmethod
    def from_label(cls, label: str, coeff: complex = 1.0) -> "PauliOperator":
        return cls(len(label), {label: coeff})

    def coefficient(self, label: str) -> complex:
        return self.terms.get(label, 0j)

    @property
    def num_terms(self) -> int:
        return len(self.terms)

    def is_zero(self) -> bool:
        return all(abs(c) <= PRUNE_TOL for c in self.terms.values())

    # -- linear structure --------------------------------------------------

    def __add__(self, other: "PauliOperator") -> "PauliOperator":
        if self.n != other.n:
            raise ValueError("size mismatch")
        out = dict(self.terms)
        for s, c in other.terms.items():
            out[s] = out.get(s, 0j) + c
        return PauliOperator._unchecked(self.n, out)

    def __sub__(self, other: "PauliOperator") -> "PauliOperator":
        return self + (-1.0) * other

    def __neg__(self) -> "PauliOperator":
        return (-1.0) * self

    def __mul__(self, scalar: complex) -> "PauliOperator":
        scalar = complex(scalar)
        return PauliOperator._unchecked(self.n, {s: scalar * c for s, c in self.terms.items()})

    __rmul__ = __mul__

    # -- multiplicative structure ------------------------------------------

    def __matmul__(self, other: "PauliOperator") -> "PauliOperator":
        """Operator product."""
        if self.n != other.n:
            raise ValueError("size mismatch")
        out: dict[str, complex] = {}
        for s, cs in self.terms.items():
            for t, ct in other.terms.items():
                phase, u = mul_strings(s, t)
                out[u] = out.get(u, 0j) + phase * cs * ct
        return PauliOperator._unchecked(self.n, out)

    def dagger(self) -> "PauliOperator":
        """Hermitian conjugate (strings are self-adjoint, amplitudes conjugate)."""
        return PauliOperator._unchecked(self.n, {s: c.conjugate() for s, c in self.terms.items()})

    def is_hermitian(self, tol: float = PRUNE_TOL) -> bool:
        return all(abs(c.imag) <= tol for c in self.terms.values())

    # -- metric ------------------------------------------------------------

    def hs_inner(self, other: "PauliOperator") -> complex:
        """tr(A^dag B) / 2^n; primitive strings are orthonormal."""
        if self.n != other.n:
            raise ValueError("size mismatch")
        a, b = self.terms, other.terms
        if len(b) < len(a):
            return complex(sum(a[s].conjugate() * b[s] for s in b if s in a))
        return complex(sum(a[s].conjugate() * b[s] for s in a if s in b))

    def hs_norm(self) -> float:
        """Refused when arithmetic overflowed: an inf or NaN amplitude, or squares summing to inf."""
        norm = float(np.sqrt(sum(abs(c) ** 2 for c in self.terms.values())))
        if not np.isfinite(norm):
            raise OverflowError("operator norm is not finite")
        return norm

    # -- ring geometry -------------------------------------------------------

    def embed(self, n: int, offset: int = 0) -> "PauliOperator":
        """Pad with identities to an n-site ring, window start at `offset` (mod n)."""
        if n < self.n:
            raise ValueError("target ring shorter than operator window")
        pad = "I" * (n - self.n)
        cut = -offset % n  # rotating the padded word left by cut starts it at offset
        out = {}
        for s, c in self.terms.items():
            word = s + pad
            out[word[cut:] + word[:cut]] = c
        return PauliOperator._unchecked(n, out)

    def embed_at_sites(self, n: int, sites: tuple[int, ...]) -> "PauliOperator":
        """Embed mapping window site i to ring site sites[i] (all distinct mod n)."""
        sites = tuple(s % n for s in sites)
        if len(sites) != self.n or len(set(sites)) != self.n:
            raise ValueError("need as many distinct target sites as window sites")
        blank = "I" * n
        return PauliOperator._unchecked(n, {_splice(blank, sites, s): c for s, c in self.terms.items()})

    # -- dense form ----------------------------------------------------------

    def to_dense(self) -> np.ndarray:
        """Dense 2^n x 2^n matrix; guarded to n <= 10."""
        if self.n > 10:
            raise ValueError("dense form limited to n <= 10 sites")
        dim = 2 ** self.n
        out = np.zeros((dim, dim), dtype=complex)
        for s, c in self.terms.items():
            m = np.array([[c]], dtype=complex)
            for ch in s:
                m = np.kron(m, _DENSE1[ch])
            out += m
        return out

    def __repr__(self) -> str:
        return f"PauliOperator(n={self.n}, {format_operator(self)!r})"


def partial_trace(op: PauliOperator, sites: tuple[int, ...]) -> PauliOperator:
    """Trace out the given sites (factor 2 per site, identity letters only)."""
    drop = sorted(set(s % op.n for s in sites))
    if len(drop) >= op.n:
        raise ValueError("cannot trace out every site")
    weight = 2.0 ** len(drop)
    out: dict[str, complex] = {}
    for s, c in op.terms.items():
        if any(s[i] != "I" for i in drop):
            continue
        key = "".join(ch for i, ch in enumerate(s) if i not in drop)
        out[key] = out.get(key, 0j) + weight * c
    return PauliOperator(op.n - len(drop), out)


# -- text format --------------------------------------------------------------

_DECIMAL = r"[0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?"
# a coefficient literal: (a+bi), (a) or a signed decimal; whitespace is gone before any match
_COEFF = rf"\((?P<re>[+-]?{_DECIMAL})(?:(?P<im>[+-]{_DECIMAL})i)?\)|(?P<real>[+-]?{_DECIMAL})"
_COEFF_RE = re.compile(_COEFF)
# one operator term: signs, an optional coefficient and '*', a Pauli string
_TERM_RE = re.compile(rf"(?P<sign>[+-]*)(?:(?P<coeff>{_COEFF})\*?)?(?P<string>[IXYZ]+)")


def _coefficient(m: re.Match, group: int | str = 0) -> complex:
    """Value of the coefficient literal m matched, m[group]; one that overflows to inf is refused."""
    c = complex(float(m["re"] or m["real"]), float(m["im"] or 0.0))
    if not cmath.isfinite(c):
        raise ValueError(f"coefficient {m[group]} is not finite")
    return c


def parse_operator(text: str, n: int | None = None) -> PauliOperator:
    """Parse an operator expression.

    Grammar: terms, each one or more signs (optional on the first term),
    an optional coefficient, an optional '*' after it, and a Pauli string
    over IXYZ.  Coefficients are decimals or parenthesized complex
    literals such as (1.5-0.25i).  '#' starts a comment; whitespace is
    ignored.
    """
    s = re.sub(r"\s+", "", text.split("#", 1)[0])
    if not s:
        if n is None:
            raise ValueError("empty operator expression and no ring size given")
        return PauliOperator.zero(n)
    terms: dict[str, complex] = {}
    pos = 0
    while pos < len(s):
        m = _TERM_RE.match(s, pos)
        if not m or (pos and not m["sign"]):
            raise ValueError(f"bad term at column {pos} in {text!r}")
        sign = -1.0 if m["sign"].count("-") % 2 else 1.0
        coeff = _coefficient(m, "coeff") if m["coeff"] else 1 + 0j
        label = m["string"]
        if n is not None and len(label) != n:
            raise ValueError(f"string {label!r} has {len(label)} sites, expected {n}")
        if n is None:
            n = len(label)
        terms[label] = terms.get(label, 0j) + sign * coeff
        pos = m.end()
    return PauliOperator(n, _finite(terms))


def _finite(terms: dict[str, complex]) -> dict[str, complex]:
    """The amplitudes, refused when a sum of finite literals overflowed."""
    for s, c in terms.items():
        if not cmath.isfinite(c):
            raise ValueError(f"amplitude of {s} is not finite")
    return terms


def sum_operators(ops) -> PauliOperator:
    """Sum of a nonempty sequence of operators; a sum that overflows is refused."""
    total = functools.reduce(PauliOperator.__add__, ops)
    _finite(total.terms)
    return total


def content_lines(text: str):
    """(line number, raw line, line without its '#' comment) of every nonblank line."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, raw, line


def sections(text: str, names) -> dict:
    """The content_lines under each [name] header, by name; key None holds those before the first.

    A header is a line that reads [name] once its comment is stripped; a
    repeated header continues its section.
    """
    headers = {f"[{name}]": name for name in names}
    out: dict = {}
    current = None
    for entry in content_lines(text):
        if entry[2] in headers:
            current = headers[entry[2]]
            out.setdefault(current, [])
        else:
            out.setdefault(current, []).append(entry)
    return out


def _format_coeff(c: complex) -> str:
    def num(x: float) -> str:
        return repr(int(x)) if x == int(x) else repr(x)

    c = complex(c)
    if abs(c.imag) <= PRUNE_TOL:
        return num(c.real)
    return f"({num(c.real)}{'+' if c.imag >= 0 else '-'}{num(abs(c.imag))}i)"


def format_operator(op: PauliOperator) -> str:
    """Inverse of parse_operator; terms in lexicographic string order."""
    if not op.terms:
        return "0*" + "I" * op.n
    pieces = []
    for s in sorted(op.terms):
        c = op.terms[s]
        neg = abs(c.imag) <= PRUNE_TOL and c.real < 0
        pieces.append(("-" if neg else "+", f"{_format_coeff(-c if neg else c)}*{s}"))
    (head_sign, head), rest = pieces[0], pieces[1:]
    return ("-" if head_sign == "-" else "") + head + "".join(f" {sg} {pc}" for sg, pc in rest)
