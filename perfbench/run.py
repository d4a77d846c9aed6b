#!/usr/bin/env python3
"""End-to-end benchmark of the replicated alert pipeline and the swarm oracle.

Run from the repository root:

    python3 perfbench/run.py --workload ingest_sparse --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke      # all workloads at smoke size, schema + checks

Builds perfbench/ (and the repository's libraries it links) into .bench_build
(or $CARGO_TARGET_DIR), runs one workload, and prints its report. The
last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; it is printed only when it
matches BENCHMARK.json. Exit status: 0 when every output check passed, non-zero
otherwise (and whenever the sources or the build are missing).
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170
SMOKE_SECONDS = "1"


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures once, then builds incrementally; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("no repository sources (src/CMakeLists.txt) beside perfbench/")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", out, "--target", "rcm_perfbench",
                    "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "rcm_perfbench")


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown (not a git checkout)"


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def check_result(line, spec, trace):
    """Returns the parsed result line, or raises ValueError on a schema break."""
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("result keys %s" % sorted(result))
    if not isinstance(result["correct"], bool):
        raise ValueError("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            raise ValueError("%s is not a whole number" % key)
    if result["attempted"] < 1:
        raise ValueError("attempted < 1")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result["metrics"]
    if set(metrics) != {m["name"] for m in wanted}:
        raise ValueError("metric names differ from BENCHMARK.json: %s"
                         % sorted(set(metrics) ^ {m["name"] for m in wanted}))
    for m in wanted:
        got = metrics[m["name"]]
        if set(got) != {"value", "unit"} or got["unit"] != m["unit"]:
            raise ValueError("metric %s: %s" % (m["name"], got))
        if not isinstance(got["value"], (int, float)) or isinstance(got["value"], bool):
            raise ValueError("metric %s: value %r" % (m["name"], got["value"]))
        if not trace and not got["value"] > 0:
            raise ValueError("end-to-end metric %s is not positive" % m["name"])
    return result


def run_one(binary, workload, seed, seconds, trace, echo=True):
    """Runs one workload; returns (exit code, parsed result or None)."""
    spec = load_spec()
    scratch = os.path.join(build_dir(), "run-%s-%d" % (workload, os.getpid()))
    shutil.rmtree(scratch, ignore_errors=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--scratch", scratch, "--commit", commit()]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        log("%s: no result within %d s" % (workload, RUN_TIMEOUT_S))
        return 1, None
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    if echo:
        for line in lines[:-1]:
            print(line)
    try:
        result = check_result(lines[-1], spec, trace)
    except (ValueError, IndexError, json.JSONDecodeError) as e:
        log("%s: no valid result line (%s); exit %d" % (workload, e, proc.returncode))
        return proc.returncode or 1, None
    if echo:
        print(lines[-1], flush=True)
    if not result["correct"] and proc.returncode == 0:
        return 1, result
    return proc.returncode, result


def smoke(binary):
    """Every workload at smoke size, untraced and traced: schema + checks."""
    failures = 0
    for w in load_spec()["workloads"]:
        for trace in (0, 1):
            code, result = run_one(binary, w["name"], 1, SMOKE_SECONDS, trace, echo=False)
            ok = code == 0 and result is not None and result["correct"]
            failures += 0 if ok else 1
            print("smoke %-14s trace=%d  %s" % (w["name"], trace,
                  "ok" if ok else "FAILED (exit %d)" % code), flush=True)
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at smoke size and check the output schema")
    args = parser.parse_args()
    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        log("build failed: %s" % e)
        return 2
    if args.smoke:
        return smoke(binary)
    if not args.workload:
        parser.error("--workload is required")
    code, _ = run_one(binary, args.workload, args.seed, args.seconds, args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
