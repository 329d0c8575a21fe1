"""Command line front end: every analysis as a subcommand with file inputs.

Reports are machine-readable and reproducible: the same configuration
and seed produce byte-identical output, each report carries the tool
version, a hash of the effective configuration, and the tolerances it
ran under.  Single-shot results are JSON, grids are CSV with a commented
header.  Exit codes: 0 for a definite result, 2 for unreadable input,
3 for an indeterminate verdict or a certificate that fails its own check
(fail closed in automation), 64 for an unknown subcommand.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys

import numpy as np

from . import __version__
from .pauli import PauliOperator, content_lines, format_operator
from .generators import (
    KERNEL_TOL,
    kernel,
    parse_generator_file,
    format_generator_file,
)
from .rings import (
    INDETERMINATE_TOL,
    ZERO_TOL,
    CanonicalParams,
    canonical_residual,
    check_conservation,
    classify_ising,
    parse_density_file,
)
from .obstruction import (
    ZERO_BAND,
    assemble_C_2site,
    assemble_C_3site,
    certify_definiteness,
    family_grid,
    rows_to_csv,
    scan,
)
from .feasibility import MAX_ITER, parse_problem_file, search

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INDETERMINATE = 3
EXIT_UNKNOWN_COMMAND = 64

SUBCOMMANDS = ("kernel", "check", "canon", "obstruction", "scan", "search")

SCHEMA_JSON = "lindring-report/1"
SCHEMA_CSV = "lindring-scan/1"


class ParseFailure(Exception):
    """Input that does not parse under the declared formats."""


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseFailure(f"cannot read {path}: {exc.strerror}") from exc


def _load(parse, path: str, **options):
    """parse(text of the file at path, **options), with a ValueError read as a ParseFailure."""
    text = _read(path)
    try:
        return parse(text, **options)
    except ValueError as exc:
        raise ParseFailure(str(exc)) from exc


def _config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _report(config: dict, result: dict) -> str:
    body = {
        "schema": SCHEMA_JSON,
        "tool": {"name": "lindring", "version": __version__},
        "config": config,
        "config_hash": _config_hash(config),
        "result": result,
    }
    return json.dumps(body, indent=2, sort_keys=True) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- subcommands ---------------------------------------------------------------


def _cmd_kernel(args) -> int:
    gen = _load(parse_generator_file, args.gen)
    tol = args.tol if args.tol is not None else KERNEL_TOL
    basis = kernel(gen, tol=tol)
    config = {"subcommand": "kernel", "gen": args.gen, "tol": tol}
    result = {
        "r": gen.r,
        "dimension": len(basis),
        "basis": [format_operator(op) for op in basis],
    }
    _emit(_report(config, result), args.out)
    return EXIT_OK


def _cmd_check(args) -> int:
    gen = _load(parse_generator_file, args.gen)
    a = _load(parse_density_file, args.density)
    if args.n is not None and args.n < max(gen.r, a.n):
        raise ParseFailure("ring shorter than the widest window")
    report = check_conservation(gen, a, mode=args.mode, n=args.n)
    config = {"subcommand": "check", "gen": args.gen, "density": args.density, "mode": args.mode,
              "n": report.n, "zero_tol": ZERO_TOL, "indeterminate_tol": INDETERMINATE_TOL}
    result = {
        "residual": report.residual,
        "scale": report.scale,
        "verdict": report.verdict,
        "offender": list(report.offender) if report.offender else None,
        "short_ring": report.short_ring,
    }
    _emit(_report(config, result), args.out)
    return EXIT_INDETERMINATE if report.verdict == "indeterminate" else EXIT_OK


def _cmd_canon(args) -> int:
    a = _load(parse_density_file, args.density)
    ising, params = classify_ising(a)
    config = {"subcommand": "canon", "density": args.density}
    result = {
        "mu": params.mu,
        "nu": params.nu,
        "h": list(params.h),
        "scale": params.scale,
        "identity_shift": params.identity_shift,
        "rotation_left": params.rotation_left.tolist(),
        "rotation_right": params.rotation_right.tolist(),
        "reconstruction_residual": canonical_residual(a, params),
        "ising_type": bool(ising),
    }
    _emit(_report(config, result), args.out)
    return EXIT_OK


def _cmd_obstruction(args) -> int:
    params = CanonicalParams.at(args.mu, args.nu, (args.hx, args.hy, args.hz))
    assemble = assemble_C_2site if args.r == 2 else assemble_C_3site
    mat = assemble(params)
    rep = certify_definiteness(mat.C, blocks=mat.blocks, params=mat.params)
    config = {
        "subcommand": "obstruction", "r": args.r,
        "mu": args.mu, "nu": args.nu,
        "hx": args.hx, "hy": args.hy, "hz": args.hz,
        "zero_band": ZERO_BAND,
    }
    result = {
        "verdict": rep.verdict,
        "max_eigenvalue": rep.max_eigenvalue,
        "nullity": rep.nullity,
        "eigenvalues": rep.eigenvalues.tolist(),
        "basis": mat.basis,
    }
    if args.emit_matrix:
        result["matrix"] = mat.C.tolist()
    _emit(_report(config, result), args.out)
    return EXIT_OK


def _finite_float(text: str) -> float:
    """A point parameter: a float literal with a finite value."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not finite")
    return value


def _anisotropy(text: str) -> float:
    """An anisotropy of the two-site normal form: a float literal in [0, 1]."""
    if not 0.0 <= (value := _finite_float(text)) <= 1.0:
        raise argparse.ArgumentTypeError(f"anisotropy {text!r} is outside [0, 1]")
    return value


def _tolerance(text: str) -> float:
    """A tolerance: a finite, non-negative float literal."""
    if (value := _finite_float(text)) < 0:
        raise argparse.ArgumentTypeError(f"{text!r} is negative")
    return value


def _seed(text: str) -> int:
    """A random seed: a non-negative integer literal."""
    if (value := int(text)) < 0:
        raise argparse.ArgumentTypeError(f"seed {text!r} is negative")
    return value


def _parse_grid_file(text: str) -> list[tuple]:
    grid = []
    for lineno, _, line in content_lines(text):
        parts = line.replace(",", " ").split()
        if len(parts) != 5:
            raise ParseFailure(f"grid line {lineno}: need 5 values, got {len(parts)}")
        try:
            grid.append(tuple(map(_anisotropy, parts[:2])) + tuple(map(_finite_float, parts[2:])))
        except argparse.ArgumentTypeError as exc:
            raise ParseFailure(f"grid line {lineno}: {exc}") from exc
    if not grid:
        raise ParseFailure("grid file has no points")
    return grid


def _cmd_scan(args) -> int:
    grid = _parse_grid_file(_read(args.grid)) if args.grid is not None else family_grid(args.family)
    rows, summary = scan(args.r, grid)
    config = {
        "subcommand": "scan", "r": args.r,
        "family": args.family, "grid": args.grid,
        "zero_band": ZERO_BAND,
        "points": len(grid),
    }
    header = [
        f"# schema: {SCHEMA_CSV}",
        f"# tool: lindring {__version__}",
        f"# config_hash: {_config_hash(config)}",
        f"# config: {json.dumps(config, sort_keys=True, separators=(',', ':'))}",
        f"# summary: {json.dumps(summary, sort_keys=True, separators=(',', ':'))}",
    ]
    _emit("\n".join(header) + "\n" + rows_to_csv(rows), args.out)
    return EXIT_OK


def _cmd_search(args) -> int:
    prob = _load(parse_problem_file, args.density, r_gen=args.r, n=args.n, mode=args.mode)
    res = search(prob, seed=args.seed)
    config = {
        "subcommand": "search", "density": args.density,
        "r_gen": prob.r_gen, "n": prob.n, "mode": prob.mode,
        "gamma_trace": 1.0,  # the search fixes tr gamma = 1
        "verify_tol": ZERO_TOL, "max_iter": MAX_ITER,  # verify_tol: check's conserved bound
        "seed": args.seed,
    }
    result = {
        "status": res.status,
        "iterations": res.iterations,
        "stop_reason": res.stop_reason,
        "affine_distance": res.affine_distance,
        "residual": res.residual,
        "gap_trace": res.gap_trace,
    }
    if res.generator is not None:
        result["generator"] = format_generator_file(res.generator)
    result["constraints"] = dict(zip(("rows", "rank", "blocks", "fixed", "stable_from"),
                                         res.constraints))
    result["short_ring"] = prob.n < result["constraints"]["stable_from"]
    if res.certificate is not None:
        result["certificate"] = {
            "verdict": res.certificate.verdict,
            "max_eigenvalue": res.certificate.max_eigenvalue,
            "nullity": res.certificate.nullity,
        }
    if res.separation is not None:
        result["separation"] = dataclasses.asdict(res.separation)
    _emit(_report(config, result), args.out)
    return EXIT_OK if res.status == "feasible" else EXIT_INDETERMINATE


# -- wiring ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lindring",
        description="conserved quantities of translationally invariant "
                    "Lindblad dynamics on spin-1/2 rings")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("kernel", help="steady-state basis of a generator")
    p.add_argument("--gen", required=True, help="generator file")
    p.add_argument("--tol", type=_tolerance, default=None, help="singular value cutoff")
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.set_defaults(run=_cmd_kernel)

    p = sub.add_parser("check", help="conservation residual of a density")
    p.add_argument("--gen", required=True, help="generator file")
    p.add_argument("--density", required=True, help="density file")
    p.add_argument("--mode", choices=("local", "global"), default="global")
    p.add_argument("--n", type=int, default=None, help="ring length")
    p.add_argument("--out", default=None)
    p.set_defaults(run=_cmd_check)

    p = sub.add_parser("canon", help="normal form of a two-site density")
    p.add_argument("--density", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(run=_cmd_canon)

    p = sub.add_parser("obstruction", help="build and certify the obstruction matrix")
    p.add_argument("--r", type=int, choices=(2, 3), required=True)
    p.add_argument("--mu", type=_anisotropy, default=0.0)
    p.add_argument("--nu", type=_anisotropy, default=0.0)
    p.add_argument("--hx", type=_finite_float, default=0.0)
    p.add_argument("--hy", type=_finite_float, default=0.0)
    p.add_argument("--hz", type=_finite_float, default=0.0)
    p.add_argument("--emit-matrix", action="store_true", help="include the matrix entries")
    p.add_argument("--out", default=None)
    p.set_defaults(run=_cmd_obstruction)

    p = sub.add_parser("scan", help="definiteness verdicts over a parameter grid")
    p.add_argument("--r", type=int, choices=(2, 3), required=True)
    points = p.add_mutually_exclusive_group(required=True)
    points.add_argument("--family", choices=("xyz", "ising-fields", "xxz", "xx-field"))
    points.add_argument("--grid", help="file with one 'mu nu hx hy hz' point per line")
    p.add_argument("--out", default=None, help="write the CSV here")
    p.set_defaults(run=_cmd_scan)

    p = sub.add_parser("search", help="search a conserving generator for a density")
    p.add_argument("--density", required=True,
                   help="density file, optionally with a [problem] section")
    # each flag given joins the keys of the [problem] section; a key set both ways exits 2
    p.add_argument("--r", type=int, choices=(1, 2, 3), default=None,
                   help="generator width (r_gen)")
    p.add_argument("--mode", choices=("local", "global"), default=None, help="default global")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(run=_cmd_search)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # unknown subcommands get their own exit code, distinct from flag errors
    head = next((a for a in argv if not a.startswith("-")), None)
    if head is not None and head not in SUBCOMMANDS:
        print(f"lindring: unknown subcommand {head!r} "
              f"(choose from {', '.join(SUBCOMMANDS)})", file=sys.stderr)
        return EXIT_UNKNOWN_COMMAND
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else EXIT_OK
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.run(args)
    except (ParseFailure, OverflowError, FloatingPointError) as exc:
        # an overflow or a non-finite intermediate: finite input too large for the analysis
        print(f"lindring: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ValueError, ArithmeticError) as exc:
        # inputs parsed but violate a precondition of the analysis, or a
        # certificate failed its own check (its Cholesky confirmation)
        print(f"lindring: {exc}", file=sys.stderr)
        return EXIT_INDETERMINATE


if __name__ == "__main__":
    sys.exit(main())
