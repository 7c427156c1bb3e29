"""Benchmark entry point.

Usage (from the repository root):

    python3 bench/run.py --workload {delta,groups,constructions} \\
        --seed N --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics: ``setup_s`` is the median
over several fresh interpreters of the time from spawn until
``import ofa.cli`` returns; then whole passes of the workload, each in a
fresh interpreter, run until ``--seconds`` have elapsed (at least one), and
``wall_s`` and ``peak_rss_mb`` are medians over the passes.  ``--trace 1``
runs the same untraced passes, then one traced pass, and reports the
per-layer metrics instead.  Metric names and units come from
BENCHMARK.json.  The last line of stdout is the result object; the lines
before it give the machine block and every metric by name with its unit.
See bench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_SPAWNS = 5
IMPORTTIME_SPAWNS = 3
PASS_TIMEOUT_S = 170
SETUP_PROBE = "import ofa.cli, sys, time; sys.stdout.write(repr(time.monotonic()))"


def fail(msg):
    sys.stderr.write("bench: %s\n" % msg)
    sys.exit(2)


def child_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def import_probe(flags=()):
    """Seconds from spawn until ``import ofa.cli`` returns, and stderr."""
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, *flags, "-c", SETUP_PROBE],
                          cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=60)
    if proc.returncode:
        fail("import ofa.cli failed:\n%s" % proc.stderr)
    return float(proc.stdout) - t0, proc.stderr


def setup_seconds():
    import_probe()  # compiles bytecode; not counted
    return statistics.median(import_probe()[0] for _ in range(SETUP_SPAWNS))


def import_seconds():
    """Cumulative import time of ofa, numpy and sympy (python -X importtime)."""
    rows = {"ofa": [], "numpy": [], "sympy": []}
    for _ in range(IMPORTTIME_SPAWNS):
        cum = {}
        for line in import_probe(("-X", "importtime"))[1].splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not line.startswith("import time:"):
                continue
            name = parts[2].strip()
            if name in ("ofa", "ofa.cli", "numpy", "sympy") and name not in cum:
                try:
                    cum[name] = int(parts[1]) / 1e6
                except ValueError:
                    continue
        rows["ofa"].append(cum.get("ofa", 0.0) + cum.get("ofa.cli", 0.0))
        rows["numpy"].append(cum.get("numpy", 0.0))
        rows["sympy"].append(cum.get("sympy", 0.0))
    return {"setup.%s_import_s" % k: statistics.median(v) for k, v in rows.items()}


def run_pass(workload, seed, spans=None):
    """One pass in a fresh interpreter, in a temporary directory."""
    cwd = workloads.scratch_dir()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed)]
    if spans:
        cmd += ["--trace", spans]
    try:
        proc = subprocess.run(cmd, cwd=cwd, env=child_env(),
                              stdout=subprocess.PIPE, text=True,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s pass exceeded %d s" % (workload, PASS_TIMEOUT_S))
    finally:
        shutil.rmtree(cwd, ignore_errors=True)
    if proc.returncode:
        fail("%s pass exited %d" % (workload, proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_passes(workload, seed, seconds):
    passes = []
    t0 = time.monotonic()
    while not passes or time.monotonic() - t0 < seconds:
        passes.append(run_pass(workload, seed))
    return passes


def pattern_problems(workload, metrics):
    """Layer metrics that must be nonzero on this workload, or zero."""
    want = workloads.LAYER_PATTERN[workload]
    out = ["%s is 0" % k for k in want["nonzero"] if not metrics[k]]
    out += ["%s is %r, expected 0" % (k, metrics[k])
            for k in want["zero"] if metrics[k]]
    return out


def machine_block(load_start):
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m_start": load_start,
        "loadavg_1m_end": os.getloadavg()[0],
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "sympy": version("sympy"),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "ofa", "cli.py")):
        fail("no program source at src/ofa; run from a checkout of the repository")
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        fail("cannot read BENCHMARK.json: %s" % exc)
    load_start = os.getloadavg()[0]

    passes = run_passes(args.workload, args.seed, args.seconds)
    problems = [p for ps in passes for p in ps["failed"]]
    attempted = sum(ps["attempted"] for ps in passes)
    wall = statistics.median(ps["wall_s"] for ps in passes)
    if args.trace:
        values = import_seconds()
        os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
        spans = os.path.join(ROOT, ".bench_out",
                             "spans-%s-seed%d.json" % (args.workload, args.seed))
        traced = run_pass(args.workload, args.seed, spans)
        problems += traced["failed"]
        attempted += traced["attempted"]
        values.update(traced["layers"])
        values["trace.overhead_ratio"] = traced["wall_s"] / wall
        pattern = pattern_problems(args.workload, values)
        metric_specs = spec["per_layer"]
    else:
        values = {
            "setup_s": setup_seconds(),
            "wall_s": wall,
            "peak_rss_mb": statistics.median(ps["peak_rss_mb"] for ps in passes),
        }
        pattern = []
        metric_specs = spec["end_to_end"]

    declared = {m["name"] for m in metric_specs}
    if declared != set(values):
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s"
             % (sorted(declared - set(values)), sorted(set(values) - declared)))
    for p in problems:
        sys.stderr.write("bench: job %s failed: %s\n" % (p["job"], "; ".join(p["problems"])))
    for p in pattern:
        sys.stderr.write("bench: layer pattern: %s\n" % p)

    print("machine %s" % json.dumps(machine_block(load_start), sort_keys=True))
    print("passes %d" % len(passes))
    metrics = {}
    for m in metric_specs:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print("%-40s %.6g %s" % (m["name"], values[m["name"]], m["unit"]))
    print("%-40s %.6g %s" % ("fail_ratio", len(problems) / attempted, "1"))
    print(json.dumps({"correct": not problems and not pattern,
                      "attempted": attempted, "failed": len(problems),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
