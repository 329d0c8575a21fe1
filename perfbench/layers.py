"""Per-layer metrics derived from the spans of a traced round.

A span's self time is its duration minus the durations of its direct
children.  Inclusive times are summed over spans of one name (no
function traced here calls itself).  Times are in seconds, summed over
every job of the round unless stated otherwise.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict

# name -> (unit, better); BENCHMARK.json lists the same metrics
PER_LAYER = {
    "pauli.matmul_calls": ("count", "lower"),
    "pauli.products": ("count", "lower"),
    "pauli.matmul_s": ("s", "lower"),
    "pauli.mul_strings_direct": ("count", "lower"),
    "generators.apply_calls": ("count", "lower"),
    "generators.apply_s": ("s", "lower"),
    "generators.diagonalize_s": ("s", "lower"),
    "generators.superop_s": ("s", "lower"),
    "generators.kernel_self_s": ("s", "lower"),
    "rings.global_residual_s": ("s", "lower"),
    "rings.local_check_s": ("s", "lower"),
    "rings.assemble_sum_s": ("s", "lower"),
    "obstruction.assemble_calls": ("count", "lower"),
    "obstruction.assemble_cold_s": ("s", "lower"),
    "obstruction.assemble_warm_s": ("s", "lower"),
    "obstruction.forms_s": ("s", "lower"),
    "obstruction.certify_s": ("s", "lower"),
    "feasibility.constraints_s": ("s", "lower"),
    "feasibility.constraint_entries": ("count", "lower"),
    "feasibility.search_self_s": ("s", "lower"),
    "feasibility.iterations": ("count", "lower"),
    "feasibility.verify_s": ("s", "lower"),
    "feasibility.verify_calls": ("count", "lower"),
    "feasibility.verify_accept_ratio": ("ratio", "higher"),
    "feasibility.verify_share": ("ratio", "lower"),
    "feasibility.spans": ("count", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.missing_names": ("count", "lower"),
    "feasible_s": ("s", "lower"),
    "refuse_s": ("s", "lower"),
    "obstruction_s": ("s", "lower"),
    "kernel_s": ("s", "lower"),
    "check_s": ("s", "lower"),
    "scan_points_per_s": ("points/s", "higher"),
}

MATMUL = "pauli.PauliOperator.__matmul__"
APPLY = ("generators.LindbladGenerator.apply", "generators.LindbladGenerator.apply_at_sites")
ASSEMBLE = ("obstruction.assemble_C_2site", "obstruction.assemble_C_3site")
FORMS = ("obstruction.conservation_forms", "obstruction.unitality_forms")
NS = 1e-9


def _job_spans(path: str):
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    names = data["names"]
    spans = [(sid, parent, names[nid], t0, t1) for sid, parent, nid, t0, t1 in data["spans"]]
    return spans, data


def layer_metrics(traced: list[dict], untraced: list[dict]) -> dict:
    incl = defaultdict(int)
    self_ns = defaultdict(int)
    calls = defaultdict(int)
    counts = defaultdict(int)
    cold_ns = 0
    warm_ns: list[int] = []
    iterations = 0
    entries = 0
    feasible_searches = 0
    verify_in_feasible_ns = 0
    main_in_feasible = 0.0
    missing: set[str] = set()
    for rec in traced:
        if "spans" not in rec or rec["failure"]:
            continue
        spans, data = _job_spans(rec["spans"])
        missing.update(data["missing"])
        for key, value in data["counts"].items():
            counts[key] += value
        for res in data["results"]:
            if res["kind"] == "search":
                iterations += res["iterations"]
                feasible_searches += res["status"] == "feasible"
            elif res["kind"] == "constraints":
                entries += res["entries"]
        children = defaultdict(int)
        for _, parent, _, t0, t1 in spans:
            children[parent] += t1 - t0
        seen_width = set()
        for sid, _, name, t0, t1 in sorted(spans, key=lambda s: s[3]):
            dur = t1 - t0
            if name == "feasibility.verify_candidate" and rec["kind"] == "feasible":
                verify_in_feasible_ns += dur
            incl[name] += dur
            self_ns[name] += dur - children[sid]
            calls[name] += 1
            if name in ASSEMBLE:
                if name in seen_width:
                    warm_ns.append(dur)
                else:
                    seen_width.add(name)
                    cold_ns += dur
        if rec["kind"] == "feasible":
            main_in_feasible += rec["main_raw_s"]

    verify_calls = calls["feasibility.verify_candidate"]
    m = {
        "pauli.matmul_calls": calls[MATMUL],
        "pauli.products": counts["pauli.products"],
        "pauli.matmul_s": incl[MATMUL] * NS,
        "pauli.mul_strings_direct": counts["pauli.mul_strings_direct"],
        "generators.apply_calls": sum(calls[n] for n in APPLY),
        "generators.apply_s": sum(self_ns[n] for n in APPLY) * NS,
        "generators.diagonalize_s": incl["generators.diagonalize_structure"] * NS,
        "generators.superop_s": incl["generators.superop_matrix"] * NS,
        "generators.kernel_self_s": self_ns["generators.kernel"] * NS,
        "rings.global_residual_s": incl["rings.global_conservation_residual"] * NS,
        "rings.local_check_s": incl["rings.local_conservation_check"] * NS,
        "rings.assemble_sum_s": incl["rings.assemble_sum"] * NS,
        "obstruction.assemble_calls": sum(calls[n] for n in ASSEMBLE),
        "obstruction.assemble_cold_s": cold_ns * NS,
        "obstruction.assemble_warm_s": statistics.median(warm_ns) * NS if warm_ns else 0.0,
        "obstruction.forms_s": sum(incl[n] for n in FORMS) * NS,
        "obstruction.certify_s": incl["obstruction.certify_definiteness"] * NS,
        "feasibility.constraints_s": incl["feasibility.build_affine_constraints"] * NS,
        "feasibility.constraint_entries": entries,
        "feasibility.search_self_s": self_ns["feasibility.search"] * NS,
        "feasibility.iterations": iterations,
        "feasibility.verify_s": incl["feasibility.verify_candidate"] * NS,
        "feasibility.verify_calls": verify_calls,
        "feasibility.verify_accept_ratio": feasible_searches / verify_calls if verify_calls else 0.0,
        "feasibility.verify_share": (verify_in_feasible_ns * NS / main_in_feasible
                                     if main_in_feasible else 0.0),
        "feasibility.spans": sum(c for n, c in calls.items() if n.startswith("feasibility.")),
        "cli.self_s": self_ns["cli.main"] * NS,
        "trace.overhead_s": (sum(r.get("main_s", 0.0) for r in traced)
                             - sum(r.get("main_s", 0.0) for r in untraced)),
        "trace.missing_names": len(missing),
    }
    m["_missing"] = sorted(missing)
    return m


def kind_totals(recs: list[dict]) -> dict:
    """Untraced job time per kind of job; scan throughput in points per second."""
    total = defaultdict(float)
    points = 0
    for r in recs:
        total[r["kind"]] += r.get("main_s", 0.0)
        points += r.get("points", 0)
    return {
        "feasible_s": total["feasible"], "refuse_s": total["refuse"],
        "obstruction_s": total["obstruction"], "kernel_s": total["kernel"],
        "check_s": total["check"],
        "scan_points_per_s": points / total["scan"] if total["scan"] else 0.0,
    }
