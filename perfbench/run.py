#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

Run from the root of a checkout:

  python3 perfbench/run.py --workload route_hot --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py selftest            # the benchmark's own tests
  python3 perfbench/run.py compare --base DIR... --new DIR...

A run builds the benchmark from source into the build directory
($CARGO_TARGET_DIR, default .bench_build) on first use, runs one workload,
and prints the benchmark's report with, as the last line, one JSON object
with the keys correct, attempted, failed and metrics. The full result,
with the machine fingerprint, is kept under <build dir>/results/.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
# Exit code of `compare` when the results come from different machines
# or toolchains: they are not comparable, whatever the numbers say.
NOT_COMPARABLE = 3


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures and builds the benchmark; returns the binary's path."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        step = subprocess.run(configure, cwd=ROOT, capture_output=True, text=True)
        if step.returncode != 0:
            log(step.stdout + step.stderr)
            # A failed configure must not look like a configured tree.
            cache = os.path.join(out, "CMakeCache.txt")
            if os.path.exists(cache):
                os.remove(cache)
            raise SystemExit("perfbench: cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    step = subprocess.run(["cmake", "--build", out, "-j", jobs], cwd=ROOT,
                          capture_output=True, text=True)
    if step.returncode != 0:
        log(step.stdout + step.stderr)
        raise SystemExit("perfbench: build failed")
    return os.path.join(out, "perfbench")


def run_binary(binary, args):
    try:
        proc = subprocess.run([binary] + args, cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        log((e.stdout or b"").decode(errors="replace") if isinstance(e.stdout, bytes) else (e.stdout or ""))
        raise SystemExit("perfbench: run timed out")
    if proc.stderr:
        log(proc.stderr.rstrip())
    return proc.returncode, proc.stdout


def parse_output(stdout):
    """(fingerprint, result) from the binary's output; either may be None."""
    fingerprint = None
    result = None
    lines = [line for line in stdout.splitlines() if line.strip()]
    for line in lines:
        if line.startswith("fingerprint "):
            fingerprint = json.loads(line[len("fingerprint "):])
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return fingerprint, result


def run_workload(ns):
    binary = build()
    args = ["--workload", ns.workload, "--seed", str(ns.seed),
            "--seconds", str(ns.seconds), "--trace", str(ns.trace)]
    traces = os.path.join(build_dir(), "traces")
    if ns.trace:
        os.makedirs(traces, exist_ok=True)
        args += ["--trace-out", os.path.join(
            traces, f"{ns.workload}-seed{ns.seed}.csv")]
    if ns.smoke:
        args.append("--smoke")
    code, stdout = run_binary(binary, args)
    sys.stdout.write(stdout)
    sys.stdout.flush()
    fingerprint, result = parse_output(stdout)
    if result is not None:
        results = os.path.join(build_dir(), "results")
        os.makedirs(results, exist_ok=True)
        name = f"{ns.workload}-seed{ns.seed}-trace{ns.trace}.json"
        with open(os.path.join(results, name), "w") as f:
            json.dump({"workload": ns.workload, "seed": ns.seed,
                       "seconds": ns.seconds, "trace": ns.trace,
                       "fingerprint": fingerprint, "result": result,
                       "report": stdout.splitlines()[:-1]}, f, indent=1)
    return code


def selftest():
    """The benchmark's own tests: generator honesty, then a seconds-long
    smoke run of every workload, untraced and traced, checked against the
    metric lists in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    binary = build()
    failures = 0
    code, stdout = run_binary(binary, ["--selftest-loadgen"])
    sys.stdout.write(stdout)
    if code != 0:
        failures += 1
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace in (0, 1):
            code, stdout = run_binary(binary, [
                "--workload", workload, "--seed", "1", "--seconds", "3",
                "--trace", str(trace), "--smoke"])
            _, result = parse_output(stdout)
            problems = []
            if code != 0:
                problems.append(f"exit code {code}")
            if result is None or set(result) != {"correct", "attempted",
                                                 "failed", "metrics"}:
                problems.append("last line is not a result object")
            else:
                key = "per_layer" if trace else "end_to_end"
                want = {m["name"] for m in bench[key]}
                missing = want - set(result["metrics"])
                if missing:
                    problems.append("missing metrics " + ", ".join(sorted(missing)))
                if result["attempted"] < 1 or not result["correct"]:
                    problems.append("run not correct")
            status = "FAIL " + "; ".join(problems) if problems else "ok"
            print(f"smoke {workload} trace={trace}: {status}", flush=True)
            failures += 1 if problems else 0
    print("selftest: " + ("PASS" if failures == 0 else f"{failures} FAILED"))
    return 0 if failures == 0 else 1


def load_results(paths):
    results = []
    for path in paths:
        files = ([os.path.join(path, f) for f in sorted(os.listdir(path))]
                 if os.path.isdir(path) else [path])
        for name in files:
            if name.endswith(".json"):
                with open(name) as f:
                    results.append(json.load(f))
    return [r for r in results if not r.get("trace")]


def compare(base_paths, new_paths):
    """Compares two sets of untraced results metric by metric against the
    bounds in BENCHMARK.json. Results from different fingerprints are not
    comparable and are rejected outright."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    base = load_results(base_paths)
    new = load_results(new_paths)
    if not base or not new:
        print("compare: no untraced results on one side")
        return 2
    prints = {json.dumps(r["fingerprint"], sort_keys=True) for r in base + new}
    if len(prints) != 1:
        print("not comparable: the results come from different machine "
              "fingerprints; rerun both sides on one machine")
        for p in sorted(prints):
            print("  " + p)
        return NOT_COMPARABLE
    regressed = 0
    for workload in sorted({r["workload"] for r in base} & {r["workload"] for r in new}):
        for metric in bench["end_to_end"]:
            name = metric["name"]
            a = [r["result"]["metrics"][name]["value"] for r in base
                 if r["workload"] == workload and name in r["result"]["metrics"]]
            b = [r["result"]["metrics"][name]["value"] for r in new
                 if r["workload"] == workload and name in r["result"]["metrics"]]
            if not a or not b:
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            change = (mb - ma) / ma if ma else 0.0
            worse = change > metric["bound"] if metric["better"] == "lower" \
                else -change > metric["bound"]
            regressed += worse
            print(f"{workload:12s} {name:16s} {ma:12.6g} -> {mb:12.6g} "
                  f"{change:+7.1%} (n={len(a)}/{len(b)}, bound "
                  f"{metric['bound']:.0%}){'  REGRESSED' if worse else ''}")
    return 1 if regressed else 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "selftest":
        return selftest()
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("--base", nargs="+", required=True)
        parser.add_argument("--new", nargs="+", required=True)
        ns = parser.parse_args(sys.argv[2:])
        return compare(ns.base, ns.new)
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="short run: one set-up, sample gates relaxed")
    return run_workload(parser.parse_args())


if __name__ == "__main__":
    sys.exit(main())
