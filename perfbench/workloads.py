"""Seeded job lists for the three workloads.

A round is the fixed list of CLI jobs a workload runs; its inputs come
from numpy's generator seeded with (workload, seed), so the same seed
always gives the same files, and every round of a run repeats the same
jobs on the same inputs.  The densities are the paper's fixed
cases; the seed picks search seeds, generators, parameter points and the
random grid.  Every job names the outcome the gate expects.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np

from oracle import Generator, format_generator, window_strings

ISING = "r=2\n0.61*XX + 0.34*XI + 0.34*IX + 0.05*II\n"
HEISENBERG = "r=2\nXX + YY + ZZ\n"
TRANSVERSE_ISING = "r=2\nXX + 0.7*ZI + 0.7*IZ\n"

# points per named scan family (grids fixed by the paper's axes)
FAMILY_POINTS = {"xyz": 441, "ising-fields": 81, "xxz": 189, "xx-field": 9}
GRID_POINTS = 300

WORKLOADS = {
    "certify-feasible": (
        "the yes path: r=2 searches that must return a generator verified on the ring, "
        "kernels of width-3 generators and ring checks; verification and generator "
        "action do most of the work"),
    "certify-refuse": (
        "the no path: r=2 and r=3 searches that must be refused with a negative-definite "
        "certificate plus cold single-point obstructions; constraint build, projector, "
        "Dykstra and form assembly, no candidate is verified"),
    "scan-grid": (
        "certificate throughput: the r=3 xyz family and a seeded random r=3 grid, r=2 "
        "scans of the four named families; warm assembly plus one eigensolve per point"),
}
WORKLOAD_IDS = {name: i for i, name in enumerate(WORKLOADS)}


class Inputs:
    """Writes input files into a directory and remembers their sha256."""

    def __init__(self, directory: str):
        self.directory = directory
        self.digests: dict[str, str] = {}

    def write(self, name: str, text: str) -> str:
        path = os.path.join(self.directory, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        self.digests[name] = hashlib.sha256(text.encode()).hexdigest()
        return path

    def path(self, name: str) -> str:
        """Where a job writes its report (not an input, so not hashed)."""
        return os.path.join(self.directory, name)


def _job(jid, kind, argv, out, rc, **expect):
    return {"id": jid, "kind": kind, "argv": argv + ["--out", out], "out": out,
            "expect": dict(expect, rc=rc)}


def _psd(rng, k: int) -> np.ndarray:
    b = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    g = b @ b.conj().T
    return g / np.trace(g).real


def _half_support_generator(rng, r: int) -> Generator:
    """gamma PSD on a random half of the window strings, zero elsewhere."""
    m = len(window_strings(r))
    support = np.sort(rng.choice(m, m // 2, replace=False))
    gamma = np.zeros((m, m), dtype=complex)
    gamma[np.ix_(support, support)] = _psd(rng, support.size)
    return Generator(r, {}, gamma)


def _dense_generator(rng, r: int) -> Generator:
    labels = window_strings(r)
    picks = rng.choice(len(labels), 4, replace=False)
    ham = {labels[i]: complex(rng.standard_normal()) for i in picks}
    return Generator(r, ham, _psd(rng, len(labels)))


def _search_seed(rng) -> int:
    return int(rng.integers(1, 1_000_000))


def certify_feasible(rng, inputs: Inputs, tag: str) -> list[dict]:
    dens = inputs.write(f"{tag}-ising.op", ISING)
    jobs = []
    for mode in ("global", "local"):
        s = _search_seed(rng)
        jobs.append(_job(f"{tag}-search-r2-{mode}-{s}", "feasible",
                         ["search", "--density", dens, "--r", "2", "--mode", mode,
                          "--seed", str(s)],
                         inputs.path(f"{tag}-search-r2-{mode}-{s}.json"), 0,
                         density=ISING, mode=mode))
    gen = inputs.write(f"{tag}-kernel-r3.gen", format_generator(_half_support_generator(rng, 3)))
    jobs.append(_job(f"{tag}-kernel-r3", "kernel", ["kernel", "--gen", gen],
                     inputs.path(f"{tag}-kernel-r3.json"), 0, gen=gen))
    for mode, n in (("global", 10), ("local", 24)):
        gen = inputs.write(f"{tag}-check-{mode}.gen", format_generator(_dense_generator(rng, 2)))
        jobs.append(_job(f"{tag}-check-{mode}-n{n}", "check",
                         ["check", "--gen", gen, "--density", dens, "--mode", mode,
                          "--n", str(n)],
                         inputs.path(f"{tag}-check-{mode}.json"), 0,
                         gen=gen, density=ISING, mode=mode, n=n, verdict="violated"))
    return jobs


def certify_refuse(rng, inputs: Inputs, tag: str) -> list[dict]:
    jobs = []
    files = {"heis": inputs.write(f"{tag}-heis.op", HEISENBERG),
             "tfi": inputs.write(f"{tag}-tfi.op", TRANSVERSE_ISING)}
    for name, dens in files.items():
        s = _search_seed(rng)
        jobs.append(_job(f"{tag}-search-r2-{name}-{s}", "refuse",
                         ["search", "--density", dens, "--r", "2", "--seed", str(s)],
                         inputs.path(f"{tag}-search-r2-{name}-{s}.json"), 3))
    s = _search_seed(rng)
    jobs.append(_job(f"{tag}-search-r3-heis-{s}", "refuse",
                     ["search", "--density", files["heis"], "--r", "3", "--seed", str(s)],
                     inputs.path(f"{tag}-search-r3-heis-{s}.json"), 3))
    for r, count in ((3, 1), (2, 2)):
        for i in range(count):
            mu, nu = rng.uniform(0.2, 1.0, size=2)
            hx, hy, hz = rng.uniform(-1.0, 1.0, size=3)
            point = [f"{v:.6f}" for v in (mu, nu, hx, hy, hz)]
            argv = ["obstruction", "--r", str(r)]
            for flag, v in zip(("--mu", "--nu", "--hx", "--hy", "--hz"), point):
                argv += [flag, v]
            jobs.append(_job(f"{tag}-obstruction-r{r}-{i}", "obstruction", argv,
                             inputs.path(f"{tag}-obstruction-r{r}-{i}.json"), 0,
                             r=r, verdict="negative_definite"))
    return jobs


def scan_grid(rng, inputs: Inputs, tag: str) -> list[dict]:
    # every r=3 scan process pays a cold form build, so r=3 runs only on the
    # two large grids, where warm points dominate
    jobs = []
    for r, family in [(3, "xyz")] + [(2, family) for family in FAMILY_POINTS]:
        jobs.append(_job(f"{tag}-scan-r{r}-{family}", "scan",
                         ["scan", "--r", str(r), "--family", family],
                         inputs.path(f"{tag}-scan-r{r}-{family}.csv"), 0,
                         points=FAMILY_POINTS[family]))
    mu_nu = rng.uniform(0.0, 1.0, size=(GRID_POINTS, 2))
    h = rng.uniform(-2.0, 2.0, size=(GRID_POINTS, 3))
    grid = np.hstack([mu_nu, h])
    text = "# mu nu hx hy hz\n" + "".join(" ".join(f"{v:.6f}" for v in row) + "\n" for row in grid)
    path = inputs.write(f"{tag}-grid.txt", text)
    jobs.append(_job(f"{tag}-scan-r3-grid", "scan", ["scan", "--r", "3", "--grid", path],
                     inputs.path(f"{tag}-scan-r3-grid.csv"), 0, points=GRID_POINTS, grid=path))
    return jobs


BUILDERS = {
    "certify-feasible": certify_feasible,
    "certify-refuse": certify_refuse,
    "scan-grid": scan_grid,
}


def make_round(workload: str, seed: int, inputs: Inputs) -> list[dict]:
    rng = np.random.default_rng([WORKLOAD_IDS[workload], seed])
    return BUILDERS[workload](rng, inputs, "in")
