"""One benchmark job: a single lindring.cli.main(argv) call in a fresh process.

Usage: python3 job.py RECORD [--spans PATH] -- ARGV...

Writes RECORD as JSON: the monotonic time at which `import lindring.cli`
finished (the parent subtracts its spawn time to get set-up time), the
duration of main() less the time its reference samples took, the reference
times right before, during and right after main() (calibrate.py), its
return code and the process's peak RSS.  With --spans the calls into
lindring are wrapped (see tracer.py), the spans are written to PATH, and
no reference is sampled during main(), so that spans hold lindring's time
alone.  Exceptions from main() are not caught: they
print a traceback and fail the job; the record is written anyway.
"""

import time
import sys

import lindring.cli

imported = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402

from calibrate import Sampler, steady_reference_s  # noqa: E402


def main() -> int:
    argv = sys.argv[1:]
    split = argv.index("--")
    own, cli_argv = argv[:split], argv[split + 1:]
    record_path = own[0]
    spans_path = own[own.index("--spans") + 1] if "--spans" in own else None
    tracer = None
    if spans_path:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    run = lindring.cli.main
    rc = None
    sampler = Sampler()
    reference_before = steady_reference_s()
    t0 = time.perf_counter()
    try:
        if tracer is None:
            with sampler:
                rc = run(cli_argv)
        else:
            rc = run(cli_argv)
    finally:
        elapsed = time.perf_counter() - t0 - sampler.paused_s
        reference_after = steady_reference_s()
        if tracer is not None:
            tracer.dump(spans_path)
        with open(record_path, "w", encoding="utf-8") as fh:
            json.dump({
                "imported_monotonic": imported,
                "main_s": elapsed,
                "reference_before_s": reference_before,
                "reference_during_s": sampler.samples,
                "reference_after_s": reference_after,
                "rc": rc,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
