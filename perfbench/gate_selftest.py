"""Self-test of the correctness gate: tampered outputs must count as failed.

    python3 perfbench/gate_selftest.py

Runs one small job of each kind through the benchmark's runner, checks
that the genuine output passes the gate, then feeds the gate tampered
copies (a flipped verdict, a residual above 1e-8, a missing certificate,
a truncated scan CSV, a wrong kernel vector and a traceback) and checks
that each one is rejected, also when a tampered output follows a genuine
one of the same job, as in a later round.  Exits 1 if any tampered output passes or any
genuine output fails.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from gate import check_job  # noqa: E402
from oracle import format_generator  # noqa: E402
from workloads import ISING, HEISENBERG, Inputs, _dense_generator, _half_support_generator, _job  # noqa: E402,E501


def _json_edit(edit):
    def tamper(text):
        rep = json.loads(text)
        edit(rep["result"])
        return json.dumps(rep)
    return tamper


def _wrong_kernel_vector(res):
    # keep the norm, turn the first basis vector towards another string
    res["basis"][0] = "0.6*XX + 0.8*II"


TAMPERS = {
    "feasible": [
        ("flipped verdict", _json_edit(lambda r: r.update(status="not_found"))),
        ("residual above 1e-8", _json_edit(lambda r: r.update(residual=3e-8))),
    ],
    "refuse": [
        ("flipped verdict", _json_edit(lambda r: r.update(status="feasible"))),
        ("missing certificate", _json_edit(lambda r: r.pop("certificate"))),
    ],
    "obstruction": [
        ("flipped verdict", _json_edit(lambda r: r.update(verdict="negative_semidefinite"))),
    ],
    "scan": [
        ("truncated scan CSV", lambda text: "".join(text.splitlines(True)[:-2])),
    ],
    "kernel": [
        ("wrong kernel vector", _json_edit(_wrong_kernel_vector)),
    ],
    "check": [
        ("residual off by 1e-6", _json_edit(lambda r: r.update(residual=r["residual"] + 1e-6))),
        ("flipped verdict", _json_edit(lambda r: r.update(verdict="conserved"))),
    ],
}


def jobs(inputs: Inputs) -> list[dict]:
    rng = np.random.default_rng(0)
    ising = inputs.write("ising.op", ISING)
    heis = inputs.write("heis.op", HEISENBERG)
    kgen = inputs.write("kernel.gen", format_generator(_half_support_generator(rng, 2)))
    cgen = inputs.write("check.gen", format_generator(_dense_generator(rng, 2)))
    return [
        _job("feasible", "feasible", ["search", "--density", ising, "--r", "2", "--mode",
                                      "local", "--seed", "1"],
             inputs.path("feasible.json"), 0, density=ISING, mode="local"),
        _job("refuse", "refuse", ["search", "--density", heis, "--r", "2", "--seed", "1"],
             inputs.path("refuse.json"), 3),
        _job("obstruction", "obstruction", ["obstruction", "--r", "2", "--mu", "0.5",
                                            "--nu", "0.3", "--hz", "0.2"],
             inputs.path("obstruction.json"), 0, r=2, verdict="negative_definite"),
        _job("scan", "scan", ["scan", "--r", "2", "--family", "xx-field"],
             inputs.path("scan.csv"), 0, points=9),
        _job("kernel", "kernel", ["kernel", "--gen", kgen], inputs.path("kernel.json"), 0,
             gen=kgen),
        _job("check", "check", ["check", "--gen", cgen, "--density", ising, "--mode",
                                "global", "--n", "8"],
             inputs.path("check.json"), 0, gen=cgen, density=ISING, mode="global", n=8,
             verdict="violated"),
    ]


def main() -> int:
    workdir = os.path.join(HERE, "_work", "gate-selftest")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    env = run.child_env()
    bad = 0
    for job in jobs(Inputs(workdir)):
        rec = run.run_job(job, env, workdir, None)
        verdicts: dict = {}
        run.judge(rec, verdicts)
        ok = rec["failure"] is None
        print(f"{job['kind']:12s} genuine output      {'passes' if ok else 'FAILS: ' + rec['failure']}")
        bad += not ok
        with open(job["out"], encoding="utf-8") as fh:
            text = fh.read()
        cases = TAMPERS[job["kind"]] + [("traceback on stderr", None)]
        for label, tamper in cases:
            if tamper is None:
                reason = check_job(job, rec["rc"], "Traceback (most recent call last):\n", text)
            else:
                reason = check_job(job, rec["rc"], "", tamper(text))
            print(f"{job['kind']:12s} {label:19s} {'rejected: ' + reason if reason else 'PASSED'}")
            bad += reason is None
        # a later round's tampered output must not inherit the genuine verdict
        label, tamper = TAMPERS[job["kind"]][0]
        with open(job["out"], "w", encoding="utf-8") as fh:
            fh.write(tamper(text))
        again = {"id": job["id"], "kind": job["kind"], "rc": rec["rc"], "job": job,
                 "stderr": "", "failure": None}
        run.judge(again, verdicts)
        reason = again["failure"]
        print(f"{job['kind']:12s} {'next round: ' + label:19s} "
              f"{'rejected: ' + reason if reason else 'PASSED'}")
        bad += reason is None
    print("gate self-test:", "ok" if not bad else f"{bad} problem(s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
