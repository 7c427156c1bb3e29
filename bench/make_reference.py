"""Regenerate ``reference.json``, the report digests the benchmark checks.

Usage (from the repository root): python3 bench/make_reference.py

Each workload runs once per input seed 0..REF_SEEDS-1, every run in a fresh
interpreter, two at a time.  A digest is recorded only when the job passes
its exit-code, pass-flag and classical-value checks; a job that does not
depend on the seed must give the same bytes for every seed.  Regenerate
only when a change is meant to alter report bytes, and say so.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

PARALLEL = 2


def child(workload, seed):
    import worker

    out = {}
    for job, code, text, _ in worker.run_jobs(workload, seed):
        problems = ["raised"] if text is None else workloads.check(job, code, text)
        out[job.name] = {"seeded": job.seeded, "problems": problems,
                         "digest": None if text is None else workloads.digest(text)}
    sys.stdout.write(json.dumps(out) + "\n")


def main():
    tasks = [(w, s) for w in workloads.WORKLOADS
             for s in range(workloads.REF_SEEDS)]
    results = {}
    running = []
    while tasks or running:
        while tasks and len(running) < PARALLEL:
            w, s = tasks.pop(0)
            cwd = workloads.scratch_dir()
            proc = subprocess.Popen(
                [sys.executable, os.path.abspath(__file__), "--child", w, str(s)],
                cwd=cwd, stdout=subprocess.PIPE, text=True)
            running.append((w, s, cwd, proc))
        w, s, cwd, proc = running.pop(0)
        stdout, _ = proc.communicate()
        shutil.rmtree(cwd)
        if proc.returncode:
            sys.exit("%s seed %d: child exited %d" % (w, s, proc.returncode))
        results[(w, s)] = json.loads(stdout.strip().splitlines()[-1])
        print("%s seed %d done" % (w, s), flush=True)

    reference = {"ref_seeds": workloads.REF_SEEDS}
    for w in workloads.WORKLOADS:
        table = reference[w] = {}
        for s in range(workloads.REF_SEEDS):
            for name, r in results[(w, s)].items():
                if r["problems"]:
                    sys.exit("%s seed %d %s: %s" % (w, s, name, r["problems"]))
                key = str(s) if r["seeded"] else "any"
                have = table.setdefault(name, {}).setdefault(key, r["digest"])
                if have != r["digest"]:
                    sys.exit("%s %s: bytes differ between seeds" % (w, name))
    with open(workloads.REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        child(sys.argv[2], int(sys.argv[3]))
    else:
        main()
