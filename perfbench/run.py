"""lindring benchmark: closed-loop CLI jobs, verdict latencies, traced layers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding src/lindring).
One client runs the jobs of a workload one after another, each as a single
lindring.cli.main(argv) call in a fresh Python process, so every module cache
starts cold as it does for a command line user.  Job time is measured around
main() inside the child; interpreter start plus `import lindring.cli` is
measured separately as set-up.  Both are scaled to a nominal machine speed
by a reference computation the child times before, during and after main()
(calibrate.py).  After each round every output is checked by gate.py.
Rounds repeat the same jobs on the same inputs while the next one is
predicted to end within --seconds (at least two run); job times are medians
over rounds.

With --trace 1 the same inputs run once untraced and once with every public
lindring function wrapped (tracer.py); the per-layer metrics come from the
spans, and trace.overhead_s is the traced minus the untraced job time.

The last line of standard output is the JSON result.  Details (environment,
input digests, every job, every span file) go to perfbench/_work/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from calibrate import NOMINAL_S  # noqa: E402
from gate import check_job  # noqa: E402
from layers import PER_LAYER, kind_totals, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Inputs, make_round  # noqa: E402

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
JOB = os.path.join(HERE, "job.py")
JOB_TIMEOUT_S = 120
# a slow first round must not leave a run with a single sample per job
MIN_ROUNDS = 2
# One BLAS thread: at most nproc, and on a shared two-core machine far
# steadier than the library default (which is faster on the r=3 searches).
BLAS_THREADS = 1


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def environment() -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "lindring")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):  # a plain source tree has no commit
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS, "commit": commit,
        "src_sha256": digest.hexdigest(), "platform": platform.platform(),
    }


def run_job(job: dict, env: dict, workdir: str, spans: str | None) -> dict:
    """Run one job and collect its timing; `judge` checks its output later."""
    record = os.path.join(workdir, job["id"] + ".record.json")
    argv = [sys.executable, JOB, record] + (["--spans", spans] if spans else [])
    argv += ["--"] + job["argv"]
    for path in (record, job["out"]):
        if os.path.exists(path):
            os.remove(path)
    rec = {"id": job["id"], "kind": job["kind"], "argv": job["argv"], "rc": None,
           "points": job["expect"].get("points", 0), "job": job, "stderr": "", "failure": None}
    if spans:
        rec["spans"] = spans
    spawned = time.monotonic()
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        rec.update(main_s=float(JOB_TIMEOUT_S), failure=f"no exit within {JOB_TIMEOUT_S} s")
        return rec
    rec.update(rc=proc.returncode, stderr=proc.stderr)
    if os.path.exists(record):
        with open(record, encoding="utf-8") as fh:
            child = json.load(fh)
        refs = ([child["reference_before_s"]] + child["reference_during_s"]
                + [child["reference_after_s"]])
        rec.update(setup_raw_s=child["imported_monotonic"] - spawned, main_raw_s=child["main_s"],
                   reference_s=refs, peak_rss_mb=child["peak_rss_mb"])
        # Seconds at nominal speed: each stretch of a job is scaled by the
        # reference measured next to it (the mean of NOMINAL_S / reference
        # over samples taken at even intervals); set-up by the one after it.
        rec.update(setup_s=rec["setup_raw_s"] * NOMINAL_S / refs[0],
                   main_s=rec["main_raw_s"] * statistics.mean(NOMINAL_S / r for r in refs))
    else:
        rec.update(main_s=time.monotonic() - spawned, failure="job record missing")
    return rec


def judge(rec: dict, verdicts: dict) -> None:
    """Run the correctness gate on a finished job; sets rec["failure"].

    Every round repeats the same jobs on the same inputs, so a job that
    exits the same way and writes the same bytes as in an earlier round
    gets that round's verdict from `verdicts` instead of a second check.
    """
    job = rec.pop("job")
    stderr = rec.pop("stderr")
    if rec["failure"] is not None:
        return
    out = None
    if os.path.exists(job["out"]):
        with open(job["out"], encoding="utf-8") as fh:
            out = fh.read()
    key = (job["id"], rec["rc"], stderr,
           None if out is None else hashlib.sha256(out.encode()).hexdigest())
    if key not in verdicts:
        verdicts[key] = check_job(job, rec["rc"], stderr, out)
    rec["failure"] = verdicts[key]
    if out is not None and rec["failure"] is None and job["kind"] in ("feasible", "refuse"):
        rec["result"] = {k: v for k, v in json.loads(out)["result"].items() if k != "generator"}


def run_round(jobs, env, workdir, verdicts: dict, traced: bool) -> list[dict]:
    """Run the jobs one after another, then check every output."""
    recs = []
    for job in jobs:
        spans = os.path.join(workdir, job["id"] + ".spans.json") if traced else None
        recs.append(run_job(job, env, workdir, spans))
    for rec in recs:
        judge(rec, verdicts)
    return recs


def timed_metrics(rounds: list[list[dict]]) -> dict:
    """End-to-end metrics; job times are medians over rounds, slot by slot.

    Every round runs the same jobs on the same inputs, so slot i holds
    the same job in every round; the median per slot keeps a burst of
    load on the machine during one round out of the result.
    """
    times = [[r["main_s"] for r in slot] for slot in zip(*rounds)]
    every = [r for rnd in rounds for r in rnd]
    return {
        "wall_s": sum(statistics.median(t) for t in times),
        "peak_rss_mb": max(r.get("peak_rss_mb", 0.0) for r in every),
        "setup_s": statistics.median(r["setup_s"] for r in every if "setup_s" in r),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "lindring", "cli.py")):
        print(f"benchmark: no lindring sources under {SRC}", file=sys.stderr)
        return 2
    workdir = os.path.join(HERE, "_work", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    env = child_env()
    warm = subprocess.run([sys.executable, "-c", "import lindring.cli"], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=JOB_TIMEOUT_S)
    if warm.returncode != 0:
        print(f"benchmark: cannot import lindring.cli:\n{warm.stderr}", file=sys.stderr)
        return 2

    inputs = Inputs(workdir)
    jobs = make_round(args.workload, args.seed, inputs)
    verdicts: dict = {}
    rounds: list[list[dict]] = []
    traced: list[dict] = []
    started = time.monotonic()
    if args.trace:
        rounds.append(run_round(jobs, env, workdir, verdicts, traced=False))
        traced = run_round(jobs, env, workdir, verdicts, traced=True)
    else:
        while True:
            t0 = time.monotonic()
            rounds.append(run_round(jobs, env, workdir, verdicts, traced=False))
            now = time.monotonic()
            if len(rounds) >= MIN_ROUNDS and now + (now - t0) - started > args.seconds:
                break

    every = [r for rnd in rounds for r in rnd] + traced
    failed = [r for r in every if r["failure"]]
    setups = [r["setup_s"] for r in every if "setup_s" in r]
    if args.trace:
        metrics = layer_metrics(traced, rounds[0])
        metrics.update(kind_totals(rounds[0]))
        missing_names = metrics.pop("_missing")
        units = {k: unit for k, (unit, _) in PER_LAYER.items()}
    else:
        metrics = timed_metrics(rounds)
        units = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
        missing_names = []
    details = {
        "workload": args.workload, "why": WORKLOADS[args.workload], "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "environment": environment(),
        "closed_loop": {"clients": 1, "rounds": len(rounds),
                        "jobs_per_round": len(rounds[0])},
        "inputs_sha256": inputs.digests, "setup_samples_s": setups,
        "metrics": metrics, "jobs": every,
        "failed": [{"id": r["id"], "failure": r["failure"]} for r in failed],
        "trace_missing_names": missing_names,
    }
    with open(os.path.join(workdir, "results.json"), "w", encoding="utf-8") as fh:
        json.dump(details, fh, indent=1)
    for r in failed:
        print(f"benchmark: job {r['id']} failed the gate: {r['failure']}", file=sys.stderr)
    result = {
        "correct": not failed,
        "attempted": len(every),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
