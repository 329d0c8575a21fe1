"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute.  Every tolerance is stated inline; nothing here is
loosened to accommodate the implementation.
"""

import numpy as np

from conftest import random_operator, random_structure_generator
from lindring.pauli import PauliOperator, parse_operator, partial_trace
from lindring.generators import (
    LindbladGenerator,
    all_strings,
    kernel,
    reduced_generator,
)
from lindring.rings import (
    CanonicalParams,
    assemble_sum,
    canonical_form,
    canonical_residual,
    check_conservation,
    classify_ising,
    global_conservation_residual,
    ti_sum_is_zero,
)
from lindring.obstruction import (
    assemble_C_2site,
    c2prime_diagnostics,
    certify_definiteness,
    closed_form_C_2site,
    family_grid,
    scan,
)
from lindring.feasibility import FeasibilityProblem, search


def conclude(num: int, desc: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"[criterion {num:02d}] {status} - {desc}")
    assert not failures, "; ".join(str(f) for f in failures[:5])


def exchange_generator():
    return LindbladGenerator(2, lindblads=[parse_operator("XX + YY + ZZ")])


def test_criterion_01_exact_minus_eight_action():
    img = exchange_generator().apply(parse_operator("XI"))
    failures = []
    # exact integer amplitudes, zero tolerance: compare term dicts directly
    if img.terms != {"XI": (-8 + 0j), "IX": (8 + 0j)}:
        failures.append(f"got terms {img.terms}")
    conclude(1, "exchange dissipator maps X1 to -8(X1 - 1X) exactly", failures)


def test_criterion_02_kernel_dimensions():
    failures = []
    dims = {
        "X": (1, 2),
        "XX": (2, 8),
        "XX + YY + ZZ": (2, 10),
    }
    for text, (r, want) in dims.items():
        gen = LindbladGenerator(r, lindblads=[parse_operator(text)])
        basis = kernel(gen, tol=1e-10)
        if len(basis) != want:
            failures.append(f"L={text}: dim {len(basis)} != {want}")
    # the 10-dimensional kernel is the permutation-symmetric span
    named = ["XX", "XY + YX", "YY", "XZ + ZX", "YZ + ZY", "ZZ",
             "XI + IX", "YI + IY", "ZI + IZ", "II"]
    ops = kernel(exchange_generator(), tol=1e-10)
    strings = all_strings(2)
    K = np.array([[op.coefficient(s) for s in strings] for op in ops]).T
    for text in named:
        v = np.array([parse_operator(text).coefficient(s) for s in strings])
        _, res, *_ = np.linalg.lstsq(K, v, rcond=None)
        gap = float(np.sqrt(res[0])) if res.size else 0.0
        if gap > 1e-10 * np.linalg.norm(v):
            failures.append(f"{text} outside kernel span by {gap:.2e}")
    conclude(2, "kernel dimensions 2, 8, 10 with the symmetric span", failures)


def test_criterion_03_global_conservation_all_one_site():
    gen = exchange_generator()
    failures = []
    for label in ("X", "Y", "Z", "I"):
        a = parse_operator(label)
        for n in range(4, 9):
            res = global_conservation_residual(gen, a, n)
            if res >= 1e-12:
                failures.append(f"a={label}, n={n}: residual {res:.2e}")
    conclude(3, "exchange conserves every one-site sum globally, n=4..8", failures)


def test_criterion_04_local_conservation_ising_combination():
    gen = LindbladGenerator(2, lindblads=[parse_operator("XX")])
    rng = np.random.default_rng(4)
    failures = []
    for _ in range(5):
        alpha, beta, delta = rng.standard_normal(3)
        a = PauliOperator(2, {"XX": alpha, "XI": beta, "IX": beta, "II": delta})
        rep = check_conservation(gen, a, mode="local", n=6)
        if rep.residual >= 1e-12:
            failures.append(f"(a,b,d)=({alpha:.3f},{beta:.3f},{delta:.3f}): "
                            f"residual {rep.residual:.2e}")
    conclude(4, "XX noise conserves aXX + bX1 + b1X + d11 locally", failures)


def test_criterion_05_heisenberg_density_obstructed():
    failures = []
    a = parse_operator("XX + YY + ZZ")
    rep = check_conservation(exchange_generator(), a, mode="local", n=6)
    if rep.verdict != "violated":
        failures.append(f"local verdict {rep.verdict}, residual {rep.residual:.2e}")
    cert = certify_definiteness(assemble_C_2site(CanonicalParams.at(1, 1)).C)
    if cert.verdict != "negative_definite" or cert.max_eigenvalue >= -1e-3:
        failures.append(f"C verdict {cert.verdict}, max eig {cert.max_eigenvalue:.2e}")
    conclude(5, "Heisenberg density: local check fails, 15x15 C definite", failures)


def test_criterion_06_assembled_matches_closed_form():
    rng = np.random.default_rng(6)
    failures = []
    scalars = []
    for _ in range(50):
        p = CanonicalParams.at(rng.uniform(0, 1), rng.uniform(0, 1),
                               tuple(rng.uniform(-1, 1, size=3)))
        A = assemble_C_2site(p).C
        F = closed_form_C_2site(p).C
        s = float(F.ravel() @ A.ravel()) / float(A.ravel() @ A.ravel())
        if s <= 0:
            failures.append(f"scalar {s!r} not positive")
        if np.abs(F - s * A).max() >= 1e-9:
            failures.append(f"entrywise gap {np.abs(F - s * A).max():.2e}")
        scalars.append(s)
    spread = max(scalars) - min(scalars)
    if spread >= 1e-9 * abs(scalars[0]):
        failures.append(f"scalar spread {spread:.2e}")
    conclude(6, "assembled C equals closed form up to one scalar", failures)


def test_criterion_07_boundary_spectra():
    failures = []
    for hx in (0.0, 0.3):
        C = closed_form_C_2site(CanonicalParams.at(0, 0, (hx, 0, 0))).C
        ev2 = np.linalg.eigvalsh(C[9:, 9:])
        zeros2 = int((np.abs(ev2) < 1e-9).sum())
        struck = int((ev2 < -1e-6).sum())
        if zeros2 != 1 or struck != 5:
            failures.append(f"hx={hx}: C2 has {zeros2} zeros, {struck} negative")
        ev1 = np.linalg.eigvalsh(C[:9, :9])
        zeros1 = int((np.abs(ev1) < 1e-9).sum())
        if zeros1 != 2:
            failures.append(f"hx={hx}: C1 has {zeros1} zeros")
    conclude(7, "boundary spectra: one zero in C2, two zeros in C1", failures)


def test_criterion_08_c2prime_degeneracy_and_cubic():
    failures = []
    for mu in np.linspace(0, 1, 5):
        for nu in np.linspace(0, 1, 5):
            for hx in (0.0, 0.5, 1.0):
                try:
                    ev, (b2, _, _) = c2prime_diagnostics(
                        CanonicalParams.at(mu, nu, (hx, 0, 0)))
                except ArithmeticError as exc:
                    failures.append(str(exc))
                    continue
                scale = 1.0 + float(np.abs(ev).max())
                gap = float(np.abs(ev[1::2] - ev[0::2]).max())
                if gap > 1e-8 * scale:
                    failures.append(f"({mu},{nu},{hx}): degeneracy gap {gap:.2e}")
                want = 4.0 * (1 + mu**2 + nu**2 + 2 * hx**2)
                if abs(b2 - want) > 1e-10 * (1 + abs(want)):
                    failures.append(f"({mu},{nu},{hx}): b2 {b2!r} != {want!r}")
                if b2 < 4.0 - 1e-10:
                    failures.append(f"({mu},{nu},{hx}): b2 {b2!r} below 4")
    conclude(8, "C2' doubly degenerate, b2 = 4(1 + mu^2 + nu^2 + 2h^2) >= 4", failures)


def test_criterion_09_width_three_families_definite():
    failures = []
    for family in ("xyz", "ising-fields", "xxz", "xx-field"):
        rows, summary = scan(3, family_grid(family))
        if summary["counts"]["indefinite"]:
            failures.append(f"{family}: indefinite points")
        for row in rows:
            on_line = (abs(row.mu) < 1e-12 and abs(row.nu) < 1e-12
                       and abs(row.hy) < 1e-12 and abs(row.hz) < 1e-12)
            if on_line:
                if row.verdict != "negative_semidefinite":
                    failures.append(f"{family} origin: {row.verdict}")
            elif row.verdict != "negative_definite" or row.max_eig >= -1e-6:
                failures.append(f"{family} ({row.mu},{row.nu},{row.hx},"
                                f"{row.hy},{row.hz}): {row.verdict}, "
                                f"max {row.max_eig:.2e}")
    conclude(9, "63x63 C definite on all four families off the trivial line", failures)


def test_criterion_10_structural_zero_sum_matches_brute_force():
    rng = np.random.default_rng(10)
    labels = "IXYZ"
    failures = []
    for i in range(200):
        r = int(rng.integers(1, 4))
        if i % 2 and r >= 2:
            # telescoping window: same core at shifted offsets, zero total
            core = "".join(labels[j] for j in rng.integers(1, 4, size=int(rng.integers(1, r))))
            cs = rng.standard_normal(r - len(core) + 1)
            cs[-1] = -cs[:-1].sum()
            b = PauliOperator(r, {
                "I" * k + core + "I" * (r - len(core) - k): c
                for k, c in enumerate(cs)})
        else:
            b = random_operator(rng, r, num_terms=5)
        structural = ti_sum_is_zero(b)
        for n in range(5, 9):
            if assemble_sum(b, n).is_zero() != structural:
                failures.append(f"trial {i}, n={n}: structural {structural}")
    conclude(10, "structural zero-sum test agrees with brute force, 200 ops", failures)


def test_criterion_11_reduced_generator_identity():
    rng = np.random.default_rng(11)
    failures = []
    sigmas = [PauliOperator.from_label(l) for l in "IXYZ"]
    for i in range(100):
        gen = random_structure_generator(rng, 2)
        red = reduced_generator(gen)
        lam = np.linalg.eigvalsh(red.gamma)
        if lam[0] < -1e-10:
            failures.append(f"trial {i}: reduced gamma eig {lam[0]:.2e}")
        for sigma in sigmas:
            want = partial_trace(gen.apply(sigma.embed(2, offset=1)), (0,))
            got = red.apply(sigma)
            err = (want - got).hs_norm()
            if err >= 1e-10:
                failures.append(f"trial {i}: identity residual {err:.2e}")
    conclude(11, "reduced generator identity on 100 random pairs, PSD gamma", failures)


def test_criterion_12_one_site_kernels_small():
    rng = np.random.default_rng(12)
    failures = []
    for i in range(500):
        gen = random_structure_generator(rng, 1, with_h=bool(i % 2))
        if np.abs(gen.gamma).max() == 0:
            continue  # only nonzero dissipators are in scope
        dim = len(kernel(gen))
        if dim > 2:
            failures.append(f"trial {i}: kernel dimension {dim}")
    conclude(12, "500 random one-site dissipators: kernel dimension <= 2", failures)


def test_criterion_13_canonical_form_and_classification():
    rng = np.random.default_rng(13)
    failures = []
    labels = "IXYZ"
    for i in range(200):
        # generic dense draws: sparse windows can hit exactly singular
        # coefficient matrices with antipodal frames, where no single
        # field vector exists and the least-norm gauge is the answer
        a = PauliOperator(2, {p + q: rng.standard_normal()
                              for p in labels for q in labels})
        params = canonical_form(a)
        if not (-1e-12 <= params.mu <= 1 + 1e-12
                and -1e-12 <= params.nu <= 1 + 1e-12):
            failures.append(f"trial {i}: (mu,nu)=({params.mu},{params.nu})")
        res = canonical_residual(a, params)
        if res >= 1e-10:
            failures.append(f"trial {i}: reconstruction residual {res:.2e}")
    curated = [
        ("XX + 0.7*XI + 0.7*IX", True),   # longitudinal Ising
        ("XX + 0.7*ZI + 0.7*IZ", False),  # transverse Ising
        ("XX + YY + 0.5*ZZ", False),      # XXZ
        ("XX + YY + ZZ", False),          # Heisenberg
    ]
    for text, want in curated:
        flat, _ = classify_ising(parse_operator(text))
        if flat is not want:
            failures.append(f"{text}: classified {flat}")
    conclude(13, "canonical form on 200 windows plus curated verdicts", failures)


def test_criterion_14_feasibility_matches_obstruction():
    failures = []
    ising = PauliOperator(2, {"XX": 0.61, "XI": 0.34, "IX": 0.34, "II": 0.05})
    for mode in ("local", "global"):
        res = search(FeasibilityProblem(ising, r_gen=2, mode=mode), seed=1)
        if res.status != "feasible" or res.residual >= 1e-8:
            failures.append(f"ising {mode}: {res.status}, residual {res.residual}")
    blocked = {
        "heisenberg": parse_operator("XX + YY + ZZ"),
        "transverse ising": parse_operator("XX + 0.7*ZI + 0.7*IZ"),
    }
    for name, target in blocked.items():
        for r_gen in (2, 3):
            for seed in (1, 2, 3):
                res = search(FeasibilityProblem(target, r_gen=r_gen), seed=seed)
                if res.status != "not_found":
                    failures.append(f"{name} r={r_gen} seed={seed}: {res.status}")
                elif res.certificate is None or res.certificate.verdict != "negative_definite":
                    failures.append(f"{name} r={r_gen} seed={seed}: no certificate")
    conclude(14, "search: Ising feasible below 1e-8, obstructed targets refused", failures)
