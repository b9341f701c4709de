#!/usr/bin/env python3
"""Run one bgpsim benchmark workload and print its result.

Usage, from the repository root:

    python3 perfbench/run.py --workload headline|fulltable|campaign \
        --seed N --seconds S --trace 0|1

The first run builds perfbench/ (which compiles ../src) into .bench_build/
as a Release build. The last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics, with
--trace 1 its per_layer metrics. The line before it is the run's metadata
(host, nproc, compiler, build type, git describe, seeds, the workload's
last measured trace.overhead_frac). Build output and failure details go
to stderr.

--pin runs the workload's trials once and records their fingerprints in
perfbench/fingerprints.txt (refusing to change an existing pin).
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "bgpsim_perfbench")
PINS = os.path.join(HERE, "fingerprints.txt")
OVERHEAD = os.path.join(ROOT, ".bench_build", "trace_overhead.json")
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configure once, then let the build tool bring the binary up to date."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs,
                    "--target", "bgpsim_perfbench"],
                   check=True, stdout=sys.stderr)


def git_describe():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_binary(args, extra):
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)] + extra
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"bgpsim_perfbench exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("bgpsim_perfbench printed no report")
    return json.loads(lines[-1])


def load_overheads():
    try:
        with open(OVERHEAD) as f:
            return json.load(f)
    except (OSError, ValueError):
        return {}


def pin(args):
    report = run_binary(args, ["--emit-prints"])
    if report["failed"]:
        raise RuntimeError(f"refusing to pin a failing run: {report['errors']}")
    pins = {}
    if os.path.exists(PINS):
        with open(PINS) as f:
            for line in f:
                if line.strip() and not line.startswith("#"):
                    workload, variant, seed, value = line.split()
                    pins[(workload, variant, int(seed))] = value
    for entry in report["prints"]:
        variant, seed, value = entry.split()
        key = (args.workload, variant, int(seed))
        if pins.get(key, value) != value:
            raise RuntimeError(f"pin {key} would change: {pins[key]} -> {value}")
        pins[key] = value
    with open(PINS, "w") as f:
        f.write("# workload variant trial-seed fingerprint "
                "(perfbench/run.py --pin)\n")
        for key in sorted(pins):
            f.write(f"{key[0]} {key[1]} {key[2]} {pins[key]}\n")
    log(f"pinned {len(report['prints'])} fingerprints for {args.workload} "
        f"seed {args.seed}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["headline", "fulltable", "campaign"])
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--pin", action="store_true")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build()
    if args.pin:
        args.trace = 0
        args.seconds = 0
        pin(args)
        return 0

    report = run_binary(args, ["--pinned", PINS])
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    failed = report["failed"]
    for m in wanted:
        got = report["metrics"].get(m["name"])
        if got is None or got["value"] is None or got["unit"] != m["unit"]:
            log(f"metric {m['name']} missing or malformed: {got}")
            failed += 1
            continue
        metrics[m["name"]] = got
    for error in report["errors"]:
        log("FAILED:", error)

    key = args.workload
    overheads = load_overheads()
    if args.trace and "trace.overhead_frac" in metrics:
        overheads[key] = metrics["trace.overhead_frac"]["value"]
        os.makedirs(os.path.dirname(OVERHEAD), exist_ok=True)
        with open(OVERHEAD, "w") as f:
            json.dump(overheads, f)
    attempted = max(1, report["attempted"], failed)
    meta = dict(report["meta"])
    meta.update({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": platform.node() or meta.get("host", "unknown"),
        "nproc": os.cpu_count(),
        "git_describe": git_describe(),
        "trace.overhead_frac": overheads.get(key),
        "failed_frac": failed / attempted,
        "pinned_fingerprints_checked": report["pinned_checked"],
    })
    print(json.dumps({"meta": meta}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        log(f"perfbench: {e}")
        sys.exit(1)
