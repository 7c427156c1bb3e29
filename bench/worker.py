"""One pass of one workload in a fresh interpreter.

Usage: worker.py --workload NAME --seed N [--trace SPANS_PATH]

Run with the per-pass temporary directory as the working directory, so
that file inputs and the paths the reports echo are the same on every
run.  Prints one JSON line: job-list wall time, peak RSS, attempted and
failed jobs with their problems, and with ``--trace`` the per-layer
metrics and exact per-function counts.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402


def run_job(job, cli, special):
    """Exit code and report text of one job; only the call is timed."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    if job.special:
        family, n, ring, kw = job.special
        rep = special(family, n, ring, **kw)
        dt = time.perf_counter() - t0
        return 0, json.dumps(rep, sort_keys=True), dt
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(job.argv)
    except SystemExit as exc:
        code = exc.code
    return code, buf.getvalue(), time.perf_counter() - t0


def peak_rss_mb():
    """Largest resident set of this process or any child it waited for."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def run_jobs(workload, seed, tracer=None):
    """Run the workload's jobs in order in the current directory.

    Yields (job, exit code, report text, seconds); a job that raises
    yields None for the code and text.  With a tracer, the wrappers are
    installed after the inputs are written and before the first job.
    """
    import ofa
    import ofa.cli as cli
    from ofa import coeff_ring, odd_form_param

    s = workloads.input_seed(seed)
    workloads.write_inputs(workload, s, os.getcwd())

    def special(family, n, ring, **kw):
        shape = odd_form_param.DeltaShape(
            cli.family_algebra(family, n, coeff_ring.parse_ring(ring)))
        return odd_form_param.special_check(shape, **kw)

    if tracer:
        tracer.install(ofa)
    for job in workloads.WORKLOADS[workload](s):
        if tracer:
            tracer.job = job.name
        try:
            yield (job, *run_job(job, cli, special))
        except Exception:
            traceback.print_exc()
            yield job, None, None, 0.0


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", help="write spans here and report layer metrics")
    args = ap.parse_args(argv)

    reference = workloads.load_reference()
    s = workloads.input_seed(args.seed)
    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()

    wall = 0.0
    attempted = 0
    failed = []
    report_bytes = 0
    for job, code, text, dt in run_jobs(args.workload, args.seed, tracer):
        attempted += 1
        if text is None:
            failed.append({"job": job.name, "problems": ["raised"]})
            continue
        wall += dt
        if not job.special:
            report_bytes += len(text.encode())
        problems = workloads.check(job, code, text)
        problems += workloads.check_digest(job, text, reference,
                                           args.workload, s)
        if problems:
            failed.append({"job": job.name, "problems": problems})

    out = {"wall_s": wall, "peak_rss_mb": peak_rss_mb(),
           "attempted": attempted, "failed": failed}
    if tracer:
        metrics = tracer.layer_metrics()
        metrics["cli.report_bytes"] = report_bytes
        out["layers"] = metrics
        out["counts"] = tracer.counts()
        with open(args.trace, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "fields": ["job", "layer", "function", "caller_layer",
                                  "start_s", "duration_s"],
                       "spans": tracer.spans}, fh)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
