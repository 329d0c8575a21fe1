import numpy as np
import pytest

from lindring.pauli import (
    PauliOperator,
    format_operator,
    mul_strings,
    parse_operator,
    partial_trace,
    sections,
)


def random_operator(rng, n, num_terms=6, hermitian=False):
    terms = {}
    for _ in range(num_terms):
        s = "".join(rng.choice(list("IXYZ")) for _ in range(n))
        c = complex(rng.normal(), 0.0 if hermitian else rng.normal())
        terms[s] = terms.get(s, 0j) + c
    return PauliOperator(n, terms)


class _Rng:
    # tiny deterministic wrapper so helpers read naturally
    def __init__(self, seed):
        self.g = np.random.default_rng(seed)

    def choice(self, seq):
        return seq[int(self.g.integers(len(seq)))]

    def normal(self):
        return float(self.g.standard_normal())


def test_single_site_products():
    assert mul_strings("X", "Y") == (1j, "Z")
    assert mul_strings("Y", "X") == (-1j, "Z")
    assert mul_strings("Z", "Z") == (1, "I")
    assert mul_strings("XY", "YX") == (1j * -1j, "ZZ")


def test_product_against_dense():
    rng = _Rng(7)
    for _ in range(60):
        n = 1 + int(rng.g.integers(4))
        a = random_operator(rng, n)
        b = random_operator(rng, n)
        lhs = (a @ b).to_dense()
        rhs = a.to_dense() @ b.to_dense()
        assert np.abs(lhs - rhs).max() < 1e-12


def test_product_associative():
    rng = _Rng(11)
    for _ in range(40):
        a = random_operator(rng, 3)
        b = random_operator(rng, 3)
        c = random_operator(rng, 3)
        d = ((a @ b) @ c) - (a @ (b @ c))
        assert d.hs_norm() < 1e-12


def test_hs_inner_matches_dense():
    rng = _Rng(3)
    for _ in range(40):
        n = 1 + int(rng.g.integers(3))
        a = random_operator(rng, n)
        b = random_operator(rng, n)
        want = np.trace(a.to_dense().conj().T @ b.to_dense()) / 2**n
        got = a.hs_inner(b)
        assert abs(got - want) < 1e-12


def test_hs_inner_orthonormal_strings():
    a = PauliOperator.from_label("XY")
    b = PauliOperator.from_label("XY")
    c = PauliOperator.from_label("XZ")
    assert a.hs_inner(b) == 1
    assert a.hs_inner(c) == 0


def test_dagger_and_hermiticity():
    op = parse_operator("(0+1i)*XY + 1.0*ZZ")
    assert not op.is_hermitian()
    assert op.dagger().coefficient("XY") == -1j
    herm = parse_operator("1.0*XX + 0.5*YI + 0.5*IY")
    assert herm.is_hermitian()
    assert (herm.dagger() - herm).hs_norm() == 0


def test_embed():
    op = parse_operator("2.0*XY")
    e = op.embed(5, offset=3)
    assert e.coefficient("YIIIX") == 0  # offset 3 puts X at 3, Y at 4
    assert e.coefficient("IIIXY") == 2
    w = op.embed(5, offset=4)  # wraps: X at 4, Y at 0
    assert w.coefficient("YIIIX") == 2
    with pytest.raises(ValueError, match="shorter"):
        op.embed(1)


def test_translate():
    # a window as long as the ring: offsets rotate it, wrapping past the end
    op = parse_operator("1.0*XYII")
    assert op.embed(4, offset=2).coefficient("IIXY") == 1
    assert op.embed(4, offset=4).coefficient("XYII") == 1
    # wrap
    assert op.embed(4, offset=3).coefficient("YIIX") == 1


def test_translate_preserves_inner():
    rng = _Rng(5)
    a = random_operator(rng, 4)
    b = random_operator(rng, 4)
    assert abs(a.embed(4, 2).hs_inner(b.embed(4, 2)) - a.hs_inner(b)) < 1e-14


def test_embed_at_sites():
    op = parse_operator("1.0*XY")
    e = op.embed_at_sites(5, (1, 3))
    assert e.coefficient("IXIYI") == 1
    with pytest.raises(ValueError):
        op.embed_at_sites(5, (2, 2))


@pytest.mark.parametrize("r", [1, 2, 3])
def test_embed_agrees_with_embed_at_sites(r):
    # the two placement routines share no code; every window start, wraps included
    rng = _Rng(40 + r)
    for n in (r, r + 1, r + 3):
        op = random_operator(rng, r, num_terms=8)
        for k in range(n + 2):
            a = op.embed(n, k)
            b = op.embed_at_sites(n, tuple((k + i) % n for i in range(r)))
            assert list(a.terms.items()) == list(b.terms.items())


def test_prune():
    a = parse_operator("1.0*XX")
    b = parse_operator("1.0*XX + 1e-20*YY")
    assert (a - b).num_terms == 0
    assert b.num_terms == 1


def test_overflow_is_kept_and_refused():
    # inf - inf is NaN, which pruning keeps so the norm can refuse it
    big = PauliOperator(1, {"X": 1e308}) * 10.0
    assert big.coefficient("X") == complex("inf")
    diff = big - big
    assert diff.num_terms == 1
    for op in (big, diff):
        with pytest.raises(OverflowError, match="not finite"):
            op.hs_norm()


def test_norm_past_the_largest_square():
    # squares above the largest float are summed at the scale of the largest
    # amplitude; a norm whose squares stay finite keeps its bits
    assert PauliOperator(2, {"XX": 1e200}).hs_norm() == 1e200
    assert PauliOperator(2, {"XX": 3e200, "ZZ": 4e200j}).hs_norm() == pytest.approx(5e200)
    assert PauliOperator(1, {"X": 1e154, "Z": -1e154}).hs_norm() == pytest.approx(1e154 * 2 ** 0.5)
    rng = np.random.default_rng(8)
    for scale in (1e-150, 1.0, 1e150):
        op = PauliOperator(2, dict(zip(("XX", "XY", "ZI"), scale * rng.standard_normal(3))))
        assert op.hs_norm() == float(np.sqrt(sum(abs(c) ** 2 for c in op.terms.values())))
    # a finite operator whose norm is above the largest float is refused
    with pytest.raises(OverflowError, match="not finite"):
        PauliOperator(1, {"X": 1.5e308, "Z": 1.5e308}).hs_norm()


def test_partial_trace():
    op = parse_operator("1.0*IX + 2.0*XX + 0.5*II")
    red = partial_trace(op, (0,))
    assert red.n == 1
    assert red.coefficient("X") == 2.0
    assert red.coefficient("I") == 1.0
    # against dense: tr_0 of op
    dense = op.to_dense().reshape(2, 2, 2, 2)
    want = np.einsum("abac->bc", dense)
    assert np.abs(red.to_dense() - want).max() < 1e-14


def test_to_dense_guard():
    with pytest.raises(ValueError):
        PauliOperator.identity(11).to_dense()


def test_parse_example():
    op = parse_operator("1.0*XX + 0.5*YI + 0.5*IY")
    assert op.coefficient("XX") == 1.0
    assert op.coefficient("YI") == 0.5
    assert op.coefficient("IY") == 0.5


def test_parse_forms():
    assert parse_operator("XX").coefficient("XX") == 1
    assert parse_operator("-XX").coefficient("XX") == -1
    assert parse_operator("2*XY - 0.5*YX").coefficient("YX") == -0.5
    assert parse_operator("(1.5-0.25i)*Z").coefficient("Z") == 1.5 - 0.25j
    assert parse_operator("(2)*Z").coefficient("Z") == 2
    assert parse_operator("1e-2*X").coefficient("X") == 0.01
    assert parse_operator("XX + XX").coefficient("XX") == 2
    assert parse_operator("  # just a comment", n=2).is_zero()


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_operator("1.0*XW")
    assert parse_operator("XX YY").n == 4  # whitespace-insensitive: one string
    with pytest.raises(ValueError):
        parse_operator("XX YY", n=2)
    with pytest.raises(ValueError):
        parse_operator("1.0*XX + 1.0*XXX")
    with pytest.raises(ValueError):
        parse_operator("")
    # literals or sums that overflow a double are refused, not read as inf
    for text in ("1e400*ZZ", "XX - 1e400*ZZ", "(1e400+0i)*ZZ", "(0-1e999i)*X",
                 "1e308*XX + 1e308*XX"):
        with pytest.raises(ValueError, match="not finite"):
            parse_operator(text)


def test_term_grammar():
    # one coefficient grammar: (a+bi), (a) or a signed decimal, then '*' or not
    assert parse_operator("(1.5)XX").terms == {"XX": 1.5}
    assert parse_operator("+XX").terms == {"XX": 1}
    assert parse_operator("X - -Y").terms == {"X": 1, "Y": 1}
    # a coefficient with no string, a '*' with no coefficient, a term with
    # no sign: each refused at the column where its term starts, counted
    # in the text without whitespace
    for text, column in (("2*", 0), ("*XX", 0), ("XX + 2*", 2), ("XX 2YY", 2), ("X+Y(2)Z", 3)):
        with pytest.raises(ValueError, match=f"at column {column} in"):
            parse_operator(text)
    # a literal that overflows is named alone, not with its term
    with pytest.raises(ValueError, match=r"^coefficient \(1-1e400i\) is not finite$"):
        parse_operator("XX + (1-1e400i)*ZZ")
    # the signs before a term are the term's, the literal is what follows
    with pytest.raises(ValueError, match="^coefficient 1e999 is not finite$"):
        parse_operator("-(1)XX - -1e999ZZ")


def test_sections():
    # key None holds the lines before the first header; a header is a
    # comment-stripped line, and a repeated one continues its section
    text = "a  # [x]\n[x]\nb\n[y]  # header\n\n[z]\n[x]\nc # note\n"
    assert sections(text, ("x", "y")) == {
        None: [(1, "a  # [x]", "a")],
        "x": [(3, "b", "b"), (8, "c # note", "c")],
        "y": [(6, "[z]", "[z]")],
    }


def test_format_roundtrip():
    rng = _Rng(23)
    for _ in range(40):
        op = random_operator(rng, 3)
        back = parse_operator(format_operator(op))
        assert (op - back).hs_norm() < 1e-12
    zero = PauliOperator.zero(2)
    assert parse_operator(format_operator(zero)).is_zero()


def test_format_readable():
    op = parse_operator("1.0*XX - 0.5*YY")
    assert format_operator(op) == "1*XX - 0.5*YY"
