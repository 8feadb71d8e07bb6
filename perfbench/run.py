#!/usr/bin/env python3
"""Build and run the repository benchmark (see README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --write-expected

Run from the repository root. The first call builds the measuring program
(`vbench`) from this checkout's sources into .bench_build/perfbench; later
calls only rebuild what changed. The last line of stdout is the result JSON.

With the default seed the run must reproduce the expectations stored in
expected.txt. With any other seed the workload first runs once through the
library's reference oracle in a separate process (so the oracle's memory
never shows in peak_rss_mb), and the measured run must reproduce that.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "vbench")
EXPECTED = os.path.join(HERE, "expected.txt")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
DEFAULT_SEED = 1
# The workloads BENCHMARK.json lists, plus tenant_day and ml_clustering,
# which run by name but stay out of the benchmark (README.md says why).
BENCHMARK_WORKLOADS = ["sim_fabric_512", "local_wordcount"]
WORKLOADS = ["sim_fabric_512", "tenant_day", "local_wordcount", "ml_clustering"]
# Stored results the self-test perturbs, one op-level and one shared check
# per workload: each must turn into failed ops.
PERTURB = {
    "sim_fabric_512": ["terasort.makespan_s", "hdfs.pipeline_bytes"],
    "tenant_day": ["slo_missed", "p95_latency_s"],
    "local_wordcount": ["output_digest", "shuffle_records"],
    "ml_clustering": ["kmeans.model_digest", "minhash.output_digest"],
}


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure (once) and build vbench; False when either step fails."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    jobs = str(os.cpu_count() or 1)
    cmd = ["cmake", "--build", BUILD, "--target", "vbench", "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def machine():
    """Which code ran: the git commit when there is one, and always a digest
    of the library and benchmark sources (a checkout need not be a git
    repository)."""
    commit = "none"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            commit = out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return f"commit={commit} sources=sha256:{digest.hexdigest()[:16]}"


def oracle_file(workload, size, seed, machine_text):
    """Run the reference oracle; returns the path of its expectations."""
    path = os.path.join(BUILD, f"oracle-{workload}-{size}-{seed}.txt")
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--size", size, "--oracle",
           "--machine", machine_text]
    out = subprocess.run(cmd, capture_output=True, text=True)
    sys.stderr.write(out.stderr)
    if out.returncode != 0:
        return None
    with open(path, "w") as f:
        f.write(out.stdout)
    return path


def vbench_args(workload, seed, seconds, trace, size, machine_text):
    """Arguments of a measured run, with its expectations; None on failure."""
    args = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--size", size, "--machine", machine_text]
    if seed == DEFAULT_SEED:
        return args + ["--expected", EXPECTED, "--strict"]
    path = oracle_file(workload, size, seed, machine_text)
    return None if path is None else args + ["--expected", path]


def per_layer():
    """BENCHMARK.json's per-layer metrics, name -> unit, in its order."""
    with open(SPEC) as f:
        return {m["name"]: m["unit"] for m in json.load(f)["per_layer"]}


def complete(result, trace):
    """A traced result in BENCHMARK.json's order: every per-layer metric,
    0 for a layer the workload never calls, then any of the workload's own."""
    if not trace:
        return result
    measured = result["metrics"]
    metrics = {name: measured.get(name, {"value": 0, "unit": unit})
               for name, unit in per_layer().items()}
    metrics.update(measured)
    return dict(result, metrics=metrics)


def run_json(args, trace):
    """Run vbench; returns (exit code, result JSON or None, stdout, stderr)."""
    out = subprocess.run(args, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    result = None
    if out.returncode == 0 and lines:
        try:
            result = complete(json.loads(lines[-1]), trace)
        except json.JSONDecodeError:
            pass
    return out.returncode, result, out.stdout, out.stderr


def measure(ns):
    if ns.workload not in WORKLOADS:
        log(f"unknown workload {ns.workload!r}; choose from {', '.join(WORKLOADS)}")
        return 2
    if not build():
        log("build failed")
        return 1
    args = vbench_args(ns.workload, ns.seed, ns.seconds, ns.trace, "full", machine())
    if args is None:
        log("reference oracle failed")
        return 1
    code, result, stdout, stderr = run_json(args, ns.trace)
    sys.stderr.write(stderr)
    if result is None:
        log(f"vbench exit {code}, no result")
        return code or 1
    lines = stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


def measure_all(ns):
    """Every workload in turn: one line of metrics each, then a JSON object
    of all results keyed by workload."""
    if not build():
        log("build failed")
        return 1
    text = machine()
    results = {}
    for w in WORKLOADS:
        args = vbench_args(w, ns.seed, ns.seconds, ns.trace, "full", text)
        code, result, _, err = ((1, None, "", "reference oracle failed") if args is None
                                else run_json(args, ns.trace))
        sys.stderr.write(err)
        if result is None:
            log(f"{w}: exit {code}, no result")
            return 1
        results[w] = result
        metrics = " ".join(f"{n}={m['value']:.6g} {m['unit']}" for n, m in result["metrics"].items())
        print(f"{w}: {metrics} | attempted={result['attempted']} failed={result['failed']} "
              f"correct={str(result['correct']).lower()}", flush=True)
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


# --- self-test -----------------------------------------------------------------


def selftest():
    """Small size of every workload: metrics complete and finite, every
    per-layer metric measured by some benchmark workload, exact counts
    repeat across runs, the oracle path passes on another seed, and a
    perturbed expectation is reported as failed ops."""
    if not build():
        log("build failed")
        return 1
    with open(SPEC) as f:
        spec = json.load(f)
    named = {False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
             True: per_layer()}
    text = machine()
    failures = []
    measured = set()  # per-layer metrics the benchmark workloads print themselves

    def fail(msg):
        failures.append(msg)
        log(f"FAIL {msg}")

    for w in WORKLOADS:
        counts = []
        for trace in (0, 1, 1):
            args = vbench_args(w, DEFAULT_SEED, 1, trace, "small", text)
            code, result, out, err = run_json(args, trace)
            if result is None:
                fail(f"{w} trace={trace}: exit {code}, no result\n{err}")
                continue
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                fail(f"{w} trace={trace}: {result['attempted']} attempted, "
                     f"{result['failed']} failed, correct={result['correct']}\n{err}")
            if trace and w in BENCHMARK_WORKLOADS:
                measured |= set(json.loads(out.strip().splitlines()[-1])["metrics"])
            metrics = result["metrics"]
            missing = set(named[bool(trace)]) - set(metrics)
            extra = set(metrics) - set(named[bool(trace)])
            if missing or (extra and w in BENCHMARK_WORKLOADS):
                fail(f"{w} trace={trace}: metrics missing {sorted(missing)}, "
                     f"not in BENCHMARK.json {sorted(extra)}")
            for name, m in metrics.items():
                if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
                    fail(f"{w}: {name} = {m['value']!r} is not a finite number")
                if m.get("unit") != named[bool(trace)].get(name, m.get("unit")) or not m.get("unit"):
                    fail(f"{w}: {name} has unit {m.get('unit')!r}")
            if trace:
                counts.append({n: m["value"] for n, m in metrics.items()
                               if m["unit"] in ("count", "B")})
        if len(counts) == 2 and counts[0] != counts[1]:
            diff = sorted(n for n in counts[0] if counts[0][n] != counts[1].get(n))
            fail(f"{w}: exact counts differ between two runs: {diff}")

        code, result, _, err = run_json(vbench_args(w, DEFAULT_SEED + 1, 1, 0, "small", text), 0)
        if result is None or not result["correct"] or result["failed"] != 0:
            fail(f"{w}: oracle-checked run on seed {DEFAULT_SEED + 1} failed\n{err}")

        for key in PERTURB[w]:
            args = vbench_args(w, DEFAULT_SEED, 1, 0, "small", text) + ["--perturb", key]
            code, result, _, err = run_json(args, 0)
            if result is None or result["correct"] or result["failed"] < 1:
                fail(f"{w}: perturbing the expected {key} was not reported as failed ops")
        log(f"{w}: ok" if not any(f.startswith(w) for f in failures) else f"{w}: FAILED")

    unmeasured = sorted(set(named[True]) - measured)
    if unmeasured:
        fail(f"per-layer metrics no benchmark workload measures: {unmeasured}")
    print(json.dumps({"selftest": "fail" if failures else "ok", "failures": len(failures)}))
    return 1 if failures else 0


def write_expected():
    """Regenerate expected.txt from the default seed (full and small size).
    Only for a change that means to alter simulated results or job outputs."""
    if not build():
        log("build failed")
        return 1
    text = machine()
    for size in ("full", "small"):
        for w in WORKLOADS:
            args = [BINARY, "--workload", w, "--seed", str(DEFAULT_SEED), "--seconds", "0.001",
                    "--size", size, "--write-expected", EXPECTED, "--machine", text]
            if subprocess.run(args, stdout=sys.stderr).returncode != 0:
                return 1
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--write-expected", action="store_true")
    ns = parser.parse_args()
    if ns.selftest:
        return selftest()
    if ns.write_expected:
        return write_expected()
    if ns.all:
        return measure_all(ns)
    if not ns.workload:
        parser.error("--workload or --all is required")
    return measure(ns)


if __name__ == "__main__":
    sys.exit(main())
