import functools

import numpy as np
import pytest

from conftest import dense_lindblad_apply, oracle_generators, random_hermitian_window, random_operator
from lindring.pauli import PauliOperator, parse_operator
from lindring.generators import LindbladGenerator
from lindring.rings import (
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
    # residual engineered into the indeterminate band
    eps = np.sqrt(2.5e-11)
    tiny = LindbladGenerator(1, lindblads=[parse_operator(f"{eps}*X")])
    rep3 = check_conservation(tiny, parse_operator("Y"), mode="global", n=4)
    assert 1e-12 < rep3.residual < 1e-8
    assert rep3.verdict == "indeterminate"
    with pytest.raises(ValueError, match="unknown mode"):
        check_conservation(gen, parse_operator("X"), mode="ring", n=6)


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
