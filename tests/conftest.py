import numpy as np
from hypothesis import strategies as st

from lindring.pauli import PauliOperator
from lindring.generators import (LindbladGenerator, _class_representative, _real_column,
                                 all_strings, basis_strings)


def random_operator(rng, n, num_terms=6, hermitian=False):
    terms = {}
    for _ in range(num_terms):
        s = "".join("IXYZ"[i] for i in rng.integers(0, 4, size=n))
        c = complex(rng.standard_normal(), 0.0 if hermitian else rng.standard_normal())
        terms[s] = terms.get(s, 0j) + c
    return PauliOperator(n, terms)


def random_hermitian_window(rng, n, num_terms=6):
    return random_operator(rng, n, num_terms=num_terms, hermitian=True)


def random_psd(rng, m, rank=None):
    rank = m if rank is None else rank
    b = rng.standard_normal((m, rank)) + 1j * rng.standard_normal((m, rank))
    g = b @ b.conj().T
    return g / np.trace(g).real


def random_structure_generator(rng, r, rank=None, with_h=True):
    m = len(basis_strings(r))
    h = random_hermitian_window(rng, r) if with_h else PauliOperator.zero(r)
    return LindbladGenerator(r, hamiltonian=h, gamma=random_psd(rng, m, rank))


def oracle_generators(rng, r):
    """Constructor keywords of a generator of width r from gamma, and of one from jump operators.

    gamma is PSD on a few random strings so the dense oracle stays cheap;
    the jump operators carry identity parts, which act as Hamiltonian terms.
    """
    m = len(basis_strings(r))
    support = rng.choice(m, size=min(m, 5), replace=False)
    gamma = np.zeros((m, m), dtype=complex)
    gamma[np.ix_(support, support)] = random_psd(rng, support.size)
    ham = random_hermitian_window(rng, r)
    jumps = [random_operator(rng, r, num_terms=3) + PauliOperator.identity(r) * (0.3 - 0.7j)
             for _ in range(2)]
    return {"hamiltonian": ham, "gamma": gamma}, {"hamiltonian": ham, "lindblads": jumps}


def dense_lindblad_apply(rho, hamiltonian, gamma=None, lindblads=None, offset=0, sites=None):
    """Dense-matrix oracle for the action of the generator given by these inputs.

    It reads the inputs a test passed to LindbladGenerator, not the
    generator: jump operators act as 2 L rho L^dag - {L^dag L, rho}, with
    their identity parts, which the generator folds into its Hamiltonian.
    """
    n = rho.n

    def embed(op):
        return op.embed(n, offset) if sites is None else op.embed_at_sites(n, sites)

    out = np.zeros((2**n, 2**n), dtype=complex)
    d = rho.to_dense()
    h = embed(hamiltonian).to_dense()
    out += 1j * (d @ h - h @ d)
    for op in lindblads or []:
        L = embed(op).to_dense()
        Ld = L.conj().T
        out += 2 * L @ d @ Ld - Ld @ L @ d - d @ Ld @ L
    if gamma is not None:
        ps = [embed(PauliOperator.from_label(s)).to_dense() for s in basis_strings(hamiltonian.n)]
        for j, k in zip(*np.nonzero(gamma)):
            out += gamma[j, k] * (2 * ps[j] @ d @ ps[k] - ps[k] @ ps[j] @ d - d @ ps[k] @ ps[j])
    return out


def psd_gammas(r):
    """Hypothesis strategy: PSD gammas on r sites of any rank, at scales 1e-6...1e8."""
    m = len(basis_strings(r))
    unit = st.floats(-1.0, 1.0)
    return st.tuples(st.integers(0, m), st.floats(-6.0, 8.0), st.booleans()).flatmap(
        lambda spec: st.lists(unit, min_size=2 * m * spec[0], max_size=2 * m * spec[0]).map(
            lambda xs: _low_rank_gamma(np.array(xs), m, spec[0], 10.0 ** spec[1], spec[2])))


def _low_rank_gamma(xs, m, rank, scale, complex_factor):
    """scale * F F^dag for an m x rank factor F read off xs."""
    F = xs[:m * rank].reshape(m, rank) + 0j
    if complex_factor:
        F = F + 1j * xs[m * rank:].reshape(m, rank)
    gamma = scale * (F @ F.conj().T)
    return 0.5 * (gamma + gamma.conj().T)


def dense_image(r, A, reduce_rows, keys=None):
    """Reference for generators._image_terms: the keys and one dense real array of rows.

    Every term of the image is summed by one dense bincount over all the
    (row, coordinate) entries, in (string of A, window term) order.
    """
    strings = all_strings(r)
    ncols = len(strings) ** 2 - len(strings)
    ids = {} if keys is None else keys
    flat, weights = [], []
    for u, coeff in A.terms.items():
        images = [piece + u[r:] for piece in strings]
        if reduce_rows:
            images = [_class_representative(key) for key in images]
        key_ids = np.array([ids.setdefault(key, len(ids)) if keys is None else keys.get(key, -1)
                            for key in images])
        rows, cols, vals = _real_column(r, strings.index(u[:r]))
        row = key_ids[rows]
        kept = row >= 0
        flat.append(row[kept] * ncols + cols[kept])
        weights.append(coeff.real * vals[kept])
    size = max(ids.values(), default=-1) + 1
    R = np.bincount(np.concatenate(flat), np.concatenate(weights), size * ncols)
    return list(ids), R.reshape(size, ncols)
