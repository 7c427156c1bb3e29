"""Self-test of the benchmark's own checks.

Usage (from the repository root): python3 bench/selftest.py [--workload W]

1. A job checked against a tampered reference digest, or a wrong
   classical value, is reported as failed; the true reference passes.
2. Two traced passes of one workload on one seed give identical
   per-function counts, and the layer pattern holds (default: groups).
3. run.py exits nonzero, printing no result, in a directory that holds
   only BENCHMARK.json and bench/.

Exits 0 when every part holds.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402


def tampered_reference_is_caught():
    import worker
    import ofa.cli

    reference = workloads.load_reference()
    job = next(j for j in workloads.constructions_jobs(0)
               if j.name == "hdet-orth5-zmod9")
    code, text, _ = worker.run_job(job, ofa.cli, None)
    ok = True
    if workloads.check(job, code, text) or workloads.check_digest(
            job, text, reference, "constructions", 0):
        print("FAIL: the true reference does not pass")
        ok = False
    bad = json.loads(json.dumps(reference))
    bad["constructions"][job.name]["any"] = workloads.digest(text + " ")
    if not workloads.check_digest(job, text, bad, "constructions", 0):
        print("FAIL: a tampered digest is not caught")
        ok = False
    job.expect = {"semiregular": False}
    if not workloads.check(job, code, text):
        print("FAIL: a wrong classical value is not caught")
        ok = False
    print("tampered reference: %s" % ("ok" if ok else "FAILED"))
    return ok


def traced_counts_repeat(workload):
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    spans = os.path.join(ROOT, ".bench_out", "selftest-spans.json")
    first = run.run_pass(workload, 7, spans)
    second = run.run_pass(workload, 7, spans)
    ok = first["counts"] == second["counts"] and first["layers"] and not (
        first["failed"] or second["failed"])
    pattern = run.pattern_problems(workload, first["layers"])
    for p in pattern:
        print("FAIL: layer pattern: %s" % p)
    if first["counts"] != second["counts"]:
        diff = sorted(k for k in set(first["counts"]) | set(second["counts"])
                      if first["counts"].get(k) != second["counts"].get(k))
        print("FAIL: counts differ for %s" % diff[:10])
    ok = ok and not pattern
    print("trace repeat on %s (%d functions called): %s"
          % (workload, len(first["counts"]), "ok" if ok else "FAILED"))
    return ok


def refuses_without_source():
    bare = workloads.scratch_dir()
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "delta", "--seed",
             "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    ok = proc.returncode != 0 and not proc.stdout.strip()
    print("refuses without source (exit %d): %s"
          % (proc.returncode, "ok" if ok else "FAILED"))
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="groups",
                    choices=sorted(workloads.WORKLOADS))
    args = ap.parse_args()
    results = [tampered_reference_is_caught(), refuses_without_source(),
               traced_counts_repeat(args.workload)]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
