"""Correctness gate: each job's output against its expected outcome.

`check_job` returns None for a correct job and a one-line reason
otherwise.  It runs after the job has ended, outside any timed interval,
and recomputes residuals and kernels with the independent arithmetic in
oracle.py.
"""

from __future__ import annotations

import json

import numpy as np

import oracle

VERIFY_TOL = 1e-8
ZERO_TOL = 1e-12
AGREE_TOL = 1e-9
KERNEL_RCOND = 1e-10


def _residual(gen, density_text: str, mode: str, n: int) -> float:
    a = oracle.parse_density(density_text)
    if mode == "global":
        return oracle.global_residual(gen, a, n)
    return oracle.local_residual(gen, a, n)


def _feasible(job, rep) -> str | None:
    res, cfg = rep["result"], rep["config"]
    if res.get("status") != "feasible":
        return f"status {res.get('status')!r}, expected feasible"
    if not isinstance(res.get("residual"), float) or not res["residual"] < VERIFY_TOL:
        return f"reported residual {res.get('residual')!r} not below {VERIFY_TOL}"
    if "generator" not in res:
        return "no generator in a feasible report"
    gen = oracle.parse_generator(res["generator"])
    eig = np.linalg.eigvalsh(gen.gamma)
    if eig[0] < -1e-9:
        return f"gamma not PSD (min eigenvalue {eig[0]:.3e})"
    if abs(np.trace(gen.gamma).real - cfg["gamma_trace"]) > 1e-8:
        return "gamma trace differs from the requested normalization"
    mine = _residual(gen, job["expect"]["density"], cfg["mode"], cfg["n"])
    if not mine < VERIFY_TOL:
        return f"independent residual {mine:.3e} not below {VERIFY_TOL}"
    if abs(mine - res["residual"]) > AGREE_TOL:
        return f"residual {res['residual']:.3e} disagrees with recomputed {mine:.3e}"
    return None


def _refuse(job, rep) -> str | None:
    res = rep["result"]
    if res.get("status") != "not_found":
        return f"status {res.get('status')!r}, expected not_found"
    if "generator" in res:
        return "refusal carries a generator"
    cert = res.get("certificate")
    if not cert or cert.get("verdict") != "negative_definite":
        return f"certificate {cert!r} is not negative_definite"
    if not cert.get("max_eigenvalue", 0.0) < 0.0:
        return "certificate max eigenvalue is not negative"
    return None


def _obstruction(job, rep) -> str | None:
    res = rep["result"]
    want = job["expect"]["verdict"]
    if res.get("verdict") != want:
        return f"verdict {res.get('verdict')!r}, expected {want!r}"
    size = 15 if job["expect"]["r"] == 2 else 63
    eig = res.get("eigenvalues") or []
    if len(eig) != size:
        return f"{len(eig)} eigenvalues, expected {size}"
    if want == "negative_definite" and not max(eig) < 0.0:
        return "negative_definite verdict with a nonnegative eigenvalue"
    return None


def _scan(job, text) -> str | None:
    summary, rows = oracle.parse_scan_csv(text)
    want = job["expect"]["points"]
    if len(rows) != want or summary.get("points") != want:
        return f"{len(rows)} rows / summary {summary.get('points')}, expected {want}"
    if any(row["verdict"] == "indefinite" for row in rows):
        return "indefinite row"
    if summary.get("counts", {}).get("indefinite"):
        return "summary counts indefinite points"
    if summary.get("semidefinite_only_on_ising_line") is not True:
        return "semidefinite points off the Ising line"
    if "grid" in job["expect"]:
        with open(job["expect"]["grid"], encoding="utf-8") as fh:
            pts = [list(map(float, ln.split())) for ln in fh
                   if ln.strip() and not ln.startswith("#")]
        got = [[float(row[k]) for k in ("mu", "nu", "hx", "hy", "hz")] for row in rows]
        if not np.allclose(np.array(got), np.array(pts), rtol=1e-5, atol=1e-6):
            return "scan rows do not follow the grid file"
    return None


def _kernel(job, rep) -> str | None:
    res = rep["result"]
    with open(job["expect"]["gen"], encoding="utf-8") as fh:
        gen = oracle.parse_generator(fh.read())
    M = oracle.superoperator(gen)
    sv = np.linalg.svd(M, compute_uv=False)
    dim = int((sv <= KERNEL_RCOND * sv[0]).sum()) if sv[0] > 0 else M.shape[0]
    basis = res.get("basis") or []
    if res.get("dimension") != len(basis) or len(basis) != dim:
        return f"kernel dimension {res.get('dimension')} / {len(basis)} vectors, recomputed {dim}"
    labels = ["I" * gen.r] + oracle.window_strings(gen.r)
    vecs = []
    for text in basis:
        terms = oracle.parse_operator(text)
        vecs.append([terms.get(s, 0j) for s in labels])
    if vecs:
        V = np.array(vecs, dtype=complex).T
        if np.abs(V.conj().T @ V - np.eye(V.shape[1])).max() > 1e-8:
            return "kernel basis is not orthonormal"
        worst = float(np.abs(M @ V).max())
        if worst > 1e-8 * sv[0]:
            return f"kernel vector not annihilated (|L v| = {worst:.3e})"
    return None


def _check(job, rep) -> str | None:
    res, exp = rep["result"], job["expect"]
    with open(exp["gen"], encoding="utf-8") as fh:
        gen = oracle.parse_generator(fh.read())
    mine = _residual(gen, exp["density"], exp["mode"], exp["n"])
    got = res.get("residual")
    if not isinstance(got, float) or abs(got - mine) > AGREE_TOL * max(1.0, mine):
        return f"residual {got!r} disagrees with recomputed {mine:.12g}"
    verdict = ("conserved" if mine < ZERO_TOL else
               "indeterminate" if mine <= VERIFY_TOL else "violated")
    if res.get("verdict") != verdict or verdict != exp["verdict"]:
        return f"verdict {res.get('verdict')!r}, recomputed {verdict!r}, expected {exp['verdict']!r}"
    return None


CHECKS = {"feasible": _feasible, "refuse": _refuse, "obstruction": _obstruction,
          "kernel": _kernel, "check": _check}


def check_job(job: dict, rc: int, stderr: str, output: str | None) -> str | None:
    """None when the job produced the expected outcome, else the reason."""
    if "Traceback" in stderr:
        return "traceback on stderr"
    if rc != job["expect"]["rc"]:
        return f"exit code {rc}, expected {job['expect']['rc']}"
    if not output:
        return "no report written"
    try:
        if job["kind"] == "scan":
            return _scan(job, output)
        return CHECKS[job["kind"]](job, json.loads(output))
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable report: {type(exc).__name__}: {exc}"
