import functools

import numpy as np
import pytest

from conftest import dense_lindblad_apply, oracle_generators, random_hermitian_window, random_operator
from lindring.pauli import PauliOperator, parse_operator
from lindring.generators import LindbladGenerator, parse_generator_file
from lindring.rings import (
    INDETERMINATE_TOL,
    ROUNDING_SHARE,
    ZERO_TOL,
    CanonicalParams,
    assemble_sum,
    canonical_form,
    canonical_residual,
    check_conservation,
    classify_ising,
    format_density_file,
    global_conservation_residual,
    local_conservation_check,
    parse_density_file,
    reconstruct,
    symmetrize_fields,
    ti_sum_is_zero,
)


def exchange_generator():
    return LindbladGenerator(2, lindblads=[parse_operator("XX + YY + ZZ")])


def dense_random_hermitian(rng):
    labels = "IXYZ"
    return PauliOperator(
        2, {labels[p] + labels[q]: rng.standard_normal() for p in range(4) for q in range(4)}
    )


def test_assemble_sum():
    A = assemble_sum(parse_operator("XX"), 4)
    for s in ("XXII", "IXXI", "IIXX", "XIIX"):
        assert A.coefficient(s) == 1
    assert A.num_terms == 4
    B = assemble_sum(parse_operator("Z"), 3)
    assert B.num_terms == 3


@pytest.mark.parametrize("a, n", [
    (parse_operator("XX + 0.3*ZI"), 6),
    (parse_operator("XI - IX"), 5),  # cancels exactly, one string at a time
    (parse_operator("XI - 1.000000000000001*IX + 0.5*ZZ"), 7),  # leaves 1e-15, below pruning
    (random_operator(np.random.default_rng(3), 3, num_terms=20), 8),
])
def test_assemble_sum_is_the_running_sum(a, n):
    # the ring sum adds each placement in place: the same strings, in the same
    # order and with the same bits as adding whole operators one by one
    want = functools.reduce(PauliOperator.__add__, [a.embed(n, j) for j in range(n)])
    got = assemble_sum(a, n)
    assert list(got.terms) == list(want.terms)
    assert np.array(list(got.terms.values())).tobytes() == np.array(list(want.terms.values())).tobytes()


def test_ti_sum_zero_divergence_form():
    w = parse_operator("0.7*X + 0.2*Z")
    b = w.embed(2, 1) - w.embed(2, 0)  # 1w - w1
    assert ti_sum_is_zero(b)
    assert assemble_sum(b, 5).is_zero()


def test_ti_sum_one_site_never_zero():
    assert not ti_sum_is_zero(parse_operator("0.3*X"))


def test_ti_sum_three_window_cases():
    # single-site pattern at three offsets, coefficients summing to zero
    b = parse_operator("1.0*XII - 0.25*IXI - 0.75*IIX")
    assert ti_sum_is_zero(b)
    assert assemble_sum(b, 6).is_zero()
    b2 = parse_operator("1.0*XII - 0.25*IXI + 0.75*IIX")
    assert not ti_sum_is_zero(b2)
    # two-site pattern shifted
    b3 = parse_operator("1.0*XYI - 1.0*IXY")
    assert ti_sum_is_zero(b3)
    # identity component blocks cancellation
    b4 = parse_operator("1.0*XYI - 1.0*IXY + 0.1*III")
    assert not ti_sum_is_zero(b4)


def test_ti_sum_matches_brute_force():
    rng = np.random.default_rng(10)
    labels = "IXYZ"
    checked = 0
    for i in range(80):
        r = int(rng.integers(2, 5))
        if i % 2:
            core = "".join(labels[j] for j in rng.integers(1, 4, size=int(rng.integers(1, r + 1))))
            offs = range(r - len(core) + 1)
            cs = rng.standard_normal(r - len(core) + 1)
            if len(cs) > 1:
                cs[-1] = -cs[:-1].sum()
            b = PauliOperator(
                r,
                {
                    "I" * k + core + "I" * (r - len(core) - k): c
                    for k, c in zip(offs, cs)
                },
            )
        else:
            b = random_operator(rng, r, num_terms=5)
        structural = ti_sum_is_zero(b)
        for n in range(r + 1, r + 5):
            assert assemble_sum(b, n).is_zero() == structural
        checked += 1
    assert checked == 80


def test_exchange_conserves_every_one_site_sum_globally():
    gen = exchange_generator()
    for label in "XYZ":
        for n in range(4, 9):
            assert global_conservation_residual(gen, parse_operator(label), n) < 1e-12
    assert global_conservation_residual(gen, parse_operator("I"), 5) < 1e-12


def test_global_residual_against_dense_oracle():
    # one placement and a ring sum of its image give the sum over all
    # placements, also on rings shorter than the safe length
    rng = np.random.default_rng(12)
    for r in (1, 2, 3):
        for spec in oracle_generators(rng, r):
            gen = LindbladGenerator(r, **spec)
            a = random_hermitian_window(rng, 2)
            for n in range(max(r, 2), 7):
                A = assemble_sum(a, n)
                dense = sum(dense_lindblad_apply(A, offset=j, **spec) for j in range(n))
                want = np.linalg.norm(dense) / 2 ** (n / 2)
                assert abs(global_conservation_residual(gen, a, n) - want) <= 1e-12 * want


def test_exchange_is_not_locally_conserving():
    gen = exchange_generator()
    ok, worst, offender = local_conservation_check(gen, parse_operator("X"), 6)
    assert not ok and worst > 1.0
    assert offender is not None


def test_dephasing_conserves_matching_one_site_operator_locally():
    gen = LindbladGenerator(1, lindblads=[parse_operator("X")])
    a = parse_operator("0.4*X + 0.1*I")
    ok, worst, _ = local_conservation_check(gen, a, 5)
    assert ok and worst < 1e-12
    bad = parse_operator("0.4*Y")
    ok2, worst2, offender = local_conservation_check(gen, bad, 5)
    assert not ok2 and offender == (0, 0)


def test_xx_dissipator_conserves_ising_type_locally():
    gen = LindbladGenerator(2, lindblads=[parse_operator("XX")])
    rng = np.random.default_rng(3)
    for _ in range(5):
        alpha, beta, delta = rng.standard_normal(3)
        a = parse_operator(
            f"{alpha}*XX + {beta}*XI + {beta}*IX + {delta}*II"
        )
        ok, worst, _ = local_conservation_check(gen, a, 6)
        assert ok and worst < 1e-12
    ok, _, offender = local_conservation_check(gen, parse_operator("YZ"), 6)
    assert not ok
    assert offender is not None


def test_local_implies_global():
    gen = LindbladGenerator(2, lindblads=[parse_operator("XX")])
    a = parse_operator("0.8*XX + 0.3*XI + 0.3*IX")
    assert global_conservation_residual(gen, a, 6) < 1e-12


def test_identity_shift_invisible_to_conserving_generator():
    gen = exchange_generator()
    a = parse_operator("X")
    shifted = parse_operator("X + 3.0*I")
    r1 = global_conservation_residual(gen, a, 6)
    r2 = global_conservation_residual(gen, shifted, 6)
    assert abs(r1 - r2) < 1e-12


def test_check_conservation_verdicts():
    gen = exchange_generator()
    rep = check_conservation(gen, parse_operator("X"), mode="global", n=6)
    assert rep.verdict == "conserved" and rep.residual < 1e-12
    rep2 = check_conservation(gen, parse_operator("X"), mode="local", n=6)
    assert rep2.verdict == "violated"
    # a unit-size generator whose residual is 1e-7 of its scale: Z dephasing
    # kills Z exactly, so only X dephasing at rate 2.5e-13 acts, and its
    # residual 4 * 2.5e-13 lies below the rounding share 1e-5 of the whole
    # generator: 1e-12 / (2.5e-13 + 1e-5 (1 + 2.5e-13)), up to the rounding
    # the rate-1 part leaves in the sum, about 4e-16
    near = LindbladGenerator(1, gamma=np.diag([2.5e-13, 0.0, 1.0]))
    for mode in ("global", "local"):
        rep3 = check_conservation(near, parse_operator("Z"), mode=mode, n=4)
        assert rep3.residual / rep3.scale == pytest.approx(1e-7, rel=1e-3)
        assert ZERO_TOL < rep3.residual / rep3.scale < INDETERMINATE_TOL
        assert rep3.verdict == "indeterminate"
    # the bands do not see scale: X dephasing at rate 2.5e-11 violates Y at
    # every rate, although the residual is below the conserved bound of 1e-8
    tiny = LindbladGenerator(1, lindblads=[parse_operator(f"{np.sqrt(2.5e-11)}*X")])
    rep4 = check_conservation(tiny, parse_operator("Y"), mode="global", n=4)
    assert rep4.residual < ZERO_TOL and rep4.verdict == "violated"
    # a zero density or generator reads conserved, with residual 0
    zero = LindbladGenerator(1, gamma=np.zeros((3, 3)))
    for g, a in ((gen, PauliOperator.zero(1)), (zero, parse_operator("X"))):
        rep5 = check_conservation(g, a, mode="global", n=4)
        assert (rep5.residual, rep5.scale, rep5.verdict) == (0.0, 0.0, "conserved")
    with pytest.raises(ValueError, match="unknown mode"):
        check_conservation(gen, parse_operator("X"), mode="ring", n=6)


def _scaled(gen: LindbladGenerator, t: float) -> LindbladGenerator:
    return LindbladGenerator(gen.r, hamiltonian=gen.hamiltonian * t, gamma=gen.gamma * t)


# u.s on two sites, u = (0.6, 0.8, 0): a Hermitian jump equal to the density,
# and a Hamiltonian equal to it, conserve it; the residual is rounding alone
_UU = "0.36*XX + 0.48*XY + 0.48*YX + 0.64*YY"
_CASES = {
    "violated": (LindbladGenerator(1, gamma=np.diag([0.2, 0.0, 0.0])), "ZZ + XX"),
    "conserved": (LindbladGenerator(2, hamiltonian=parse_operator(_UU),
                                    lindblads=[parse_operator(_UU)]), _UU),
}


@pytest.mark.parametrize("mode", ["global", "local"])
@pytest.mark.parametrize("size", [1e-13, 1e-8, 1.0, 1e5])
@pytest.mark.parametrize("verdict", sorted(_CASES))
def test_check_verdict_does_not_see_scale(verdict, size, mode):
    # the bands are relative to a scale linear in the density and in the
    # generator: multiplying either by any size leaves the verdict; at 1e-13
    # absolute bands would read the violated case conserved
    gen, density = _CASES[verdict]
    a = parse_operator(density)
    for g, d in ((gen, a * size), (_scaled(gen, size), a)):
        rep = check_conservation(g, d, mode=mode, n=6)
        assert rep.verdict == verdict, (rep.residual, rep.scale)


def test_check_scale_reads_the_ring_sum():
    # 1e9 (XI - IX) cancels from the ring sum but not from |a|: a global
    # check measures its residual against |A|, so Z dephasing still
    # violates XX; locally every placement carries the 1e9 part
    a = parse_operator("XX + 1e9*XI - 1e9*IX")
    gen = LindbladGenerator(1, lindblads=[parse_operator("Z")])
    for mode in ("global", "local"):
        assert check_conservation(gen, a, mode=mode, n=6).verdict == "violated"
    rep = check_conservation(gen, a, mode="global", n=6)
    want = assemble_sum(parse_operator("XX"), 6).hs_norm() * (1 + ROUNDING_SHARE)
    assert rep.scale == pytest.approx(want, rel=1e-12)


# (generator file, density): a large part that maps the density to exactly
# zero next to a small one that violates it
_EXACT_PARTS = {
    "commuting hamiltonian": ("[hamiltonian]\n1e9*ZZ\n[lindblad]\n0.2*XI\n", "ZZ"),
    "killed density part": ("[lindblad]\n0.2*X\n", "1e9*XI + ZZ"),
    "killing jump": ("[lindblad]\n31622.78*Z\n0.2*X\n", "ZZ"),
    "hamiltonian without ring sum": ("[hamiltonian]\n1e9*XI - 1e9*IX\n[lindblad]\n0.2*XI\n",
                                     "ZZ"),
}


@pytest.mark.parametrize("mode", ["global", "local"])
@pytest.mark.parametrize("case", sorted(_EXACT_PARTS))
def test_exact_parts_do_not_hide_a_violation(case, mode):
    # a part mapped to exactly zero carries no error into the residual and
    # stays out of the scale, however large; a scale of the whole inputs,
    # |a| (tr gamma + |H|), would read all but one of these conserved
    text, density = _EXACT_PARTS[case]
    gen = parse_generator_file(text)
    rep = check_conservation(gen, parse_operator(density), mode=mode, n=6)
    assert rep.verdict == "violated", (rep.residual, rep.scale)
    assert rep.residual > 10 * INDETERMINATE_TOL * rep.scale


def test_symmetrize_fields_preserves_ring_sum():
    rng = np.random.default_rng(6)
    a = dense_random_hermitian(rng)
    s = symmetrize_fields(a)
    assert (assemble_sum(a, 5) - assemble_sum(s, 5)).hs_norm() < 1e-12
    assert (s.coefficient("XI") - s.coefficient("IX")) == 0


def test_canonical_form_of_canonical_input():
    a = parse_operator("XX + 0.5*YY + 0.25*ZZ + 0.3*XI + 0.3*IX + 2.0*II")
    p = canonical_form(a)
    assert abs(p.mu - 0.5) < 1e-12 and abs(p.nu - 0.25) < 1e-12
    assert abs(p.scale - 1.0) < 1e-12
    assert abs(p.identity_shift - 2.0) < 1e-12
    assert np.allclose(p.h, (0.3, 0, 0))
    assert np.allclose(p.rotation_left, np.eye(3))
    assert np.allclose(p.rotation_right, np.eye(3))
    assert canonical_residual(a, p) < 1e-12


def test_canonical_form_axis_relabeling():
    p = canonical_form(parse_operator("ZZ"))
    assert abs(p.mu) < 1e-12 and abs(p.nu) < 1e-12
    assert abs(abs(p.scale) - 1.0) < 1e-12
    assert canonical_residual(parse_operator("ZZ"), p) < 1e-12


def test_canonical_form_negative_orientation():
    a = parse_operator("XX + 0.5*YY - 0.25*ZZ")
    p = canonical_form(a)
    assert abs(p.mu - 0.5) < 1e-12 and abs(p.nu - 0.25) < 1e-12
    assert p.scale < 0
    assert canonical_residual(a, p) < 1e-12


def test_canonical_form_recovers_rotated_operators():
    from scipy.stats import special_ortho_group

    rng = np.random.default_rng(7)
    for _ in range(25):
        R1 = special_ortho_group.rvs(3, random_state=rng)
        R2 = special_ortho_group.rvs(3, random_state=rng)
        nu, mu = np.sort(rng.uniform(0.05, 0.95, size=2))
        h = tuple(rng.standard_normal(3))
        target = CanonicalParams(
            mu=float(mu), nu=float(nu), h=h, rotation_left=R1, rotation_right=R2,
            identity_shift=float(rng.standard_normal()), scale=1.3,
        )
        a = reconstruct(target)
        p = canonical_form(a)
        assert abs(p.mu - mu) < 1e-9 and abs(p.nu - nu) < 1e-9
        # the normal form is unique up to paired axis flips; |h| components match
        assert np.allclose(np.abs(p.h), np.abs(h), atol=1e-9)
        assert (reconstruct(p) - a).hs_norm() < 1e-10


def test_canonical_form_random_hermitian():
    rng = np.random.default_rng(8)
    for _ in range(60):
        a = dense_random_hermitian(rng)
        p = canonical_form(a)
        assert 0.0 <= p.mu <= 1.0 and 0.0 <= p.nu <= 1.0
        assert canonical_residual(a, p) < 1e-10
        for R in (p.rotation_left, p.rotation_right):
            assert np.abs(R @ R.T - np.eye(3)).max() < 1e-12
            assert abs(np.linalg.det(R) - 1.0) < 1e-12


def test_canonical_form_pure_field():
    a = parse_operator("0.2*YI + 0.2*IY")
    p = canonical_form(a)
    assert p.scale == 0.0
    assert abs(p.h[0] - 0.2) < 1e-12 and abs(p.h[1]) < 1e-12
    assert canonical_residual(a, p) < 1e-12


def test_classify_ising_curated():
    yes = [
        "XX",
        "ZZ",
        "XX + 0.7*XI + 0.7*IX",  # longitudinal field
        "ZZ + 0.7*ZI + 0.7*IZ",
        "0.2*YI + 0.2*IY",  # pure field
        "XX + 0.1*II",
    ]
    no = [
        "XX + YY + ZZ",  # exchange
        "XX + YY",
        "XX + 0.5*YY",
        "XX + 0.7*ZI + 0.7*IZ",  # transverse field
        "XY + YX",
    ]
    # the verdict does not depend on the size of the density
    for scale in (1e-13, 1.0, 1e5):
        for text in yes:
            flat, _ = classify_ising(scale * parse_operator(text))
            assert flat, (scale, text)
        for text in no:
            flat, p = classify_ising(scale * parse_operator(text))
            assert not flat, (scale, text)
            assert p.scale != 0.0, (scale, text)


def test_classify_ising_rotated():
    from scipy.stats import special_ortho_group

    rng = np.random.default_rng(9)
    R1 = special_ortho_group.rvs(3, random_state=rng)
    R2 = special_ortho_group.rvs(3, random_state=rng)
    target = CanonicalParams(
        mu=0.0, nu=0.0, h=(0.4, 0.0, 0.0), rotation_left=R1, rotation_right=R2,
        identity_shift=0.0, scale=1.0,
    )
    a = reconstruct(target)
    flat, p = classify_ising(a)
    assert flat
    # the field gauge is free for a rank-one correlation matrix; check invariants
    assert abs(p.mu) < 1e-9 and abs(p.nu) < 1e-9
    assert canonical_residual(a, p) < 1e-9
    flat2, _ = classify_ising(reconstruct(target.__class__(
        mu=0.0, nu=0.0, h=(0.4, 0.2, 0.0), rotation_left=R1, rotation_right=R2,
        identity_shift=0.0, scale=1.0,
    )))
    assert not flat2


def test_density_file_roundtrip():
    a = parse_operator("XX + 0.5*YI + 0.5*IY")
    text = format_density_file(a)
    assert text.startswith("r=2")
    back = parse_density_file(text)
    assert (back - a).hs_norm() < 1e-12
    multi = "r=2\nXX\n0.5*YI + 0.5*IY\n"
    assert (parse_density_file(multi) - a).hs_norm() < 1e-12


def test_density_file_errors():
    with pytest.raises(ValueError):
        parse_density_file("XX\n")
    with pytest.raises(ValueError):
        parse_density_file("r=2\nXXX\n")
    with pytest.raises(ValueError):
        parse_density_file("r=2\n")
    with pytest.raises(ValueError):
        parse_density_file("")
    with pytest.raises(ValueError, match="not finite"):
        parse_density_file("r=2\n1e308*XX\n1e308*XX\n")
