#!/usr/bin/env python3
"""Builds the perfbench binary from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed N --seconds S --trace 0|1

The binary is compiled from perfbench/ and the program's own src/ tree
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench). The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; metrics holds every end-to-end metric listed in
BENCHMARK.json for --trace 0 and every per-layer metric for --trace 1.
The lines before it carry provenance, the workload config and sample
counts. Full outputs (and, for --trace 1, the span trace) are written
under .bench_out/. The exit code is nonzero when a correctness check
fails or the build or run does not complete.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        try:
            out = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True)
            dirty = subprocess.run(
                ["git", "-C", ROOT, "status", "--porcelain", "--", "src",
                 "perfbench"],
                capture_output=True, text=True, timeout=30, check=True)
            return "git:" + out.stdout.strip() + ("+dirty" if dirty.stdout else "")
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sha256:" + digest.hexdigest()[:16]


def build():
    target_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target_root, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                res = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                     timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as e:
                fail("build step %s failed: %s" % (cmd[:2], e))
            if res.returncode != 0:
                log.flush()
                with open(log_path) as f:
                    tail = f.read()[-4000:]
                if cmd is steps[0] and len(steps) == 2:
                    # A failed configure leaves a cache behind; drop it so
                    # the next run configures again.
                    cache = os.path.join(build_dir, "CMakeCache.txt")
                    if os.path.exists(cache):
                        os.remove(cache)
                fail("build failed (see %s):\n%s" % (log_path, tail))
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        fail("unknown workload %r (one of %s)" % (args.workload, workloads))
    wanted = spec["per_layer"] if args.trace == "1" else spec["end_to_end"]

    binary = build()
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    stem = "%s-seed%d-trace%s" % (args.workload, args.seed, args.trace)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--source-id", source_id()]
    if args.trace == "1":
        cmd += ["--trace-out", os.path.join(out_dir, stem + ".spans.json")]
    try:
        res = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
    sys.stderr.write(res.stderr)
    lines = res.stdout.strip().splitlines()
    if res.returncode not in (0, 1) or len(lines) < 2:
        fail("%s exited with %d and no result" % (args.workload, res.returncode))
    try:
        detail = json.loads(lines[-2])
        result = json.loads(lines[-1])
    except ValueError as e:
        fail("unreadable benchmark output: %s" % e)

    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail("metric %s missing or in another unit: %r" % (m["name"], got))
        metrics[m["name"]] = got
    final = {"correct": result["correct"], "attempted": result["attempted"],
             "failed": result["failed"], "metrics": metrics}

    with open(os.path.join(out_dir, stem + ".json"), "w") as f:
        json.dump({"detail": detail, "result": result}, f, indent=1)
    print(json.dumps(detail))
    print(json.dumps(final))
    sys.exit(0 if result["correct"] and res.returncode == 0 else 1)


if __name__ == "__main__":
    main()
