#!/usr/bin/env python3
"""Builds the perfbench benchmark from source, then runs it.

Run from the root of the repository:

    python3 perfbench/run.py --workload drain-s1 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Every argument is passed to the benchmark binary (see perfbench/README.md);
this script adds --revision. `--workload all` runs each workload in a
process of its own, so each peak_rss_mb is that workload's own, and ends
with one result line holding every workload's metrics as
<workload>.<metric>. The build goes to .bench_build/perfbench and its log
to stderr, so the last line of stdout is the benchmark's result. The exit
status is the benchmark's (the worst one under `all`), or 2 when the build
fails.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("drain-s1", "drain-s4", "serve-wire")


def run_quietly(command):
    """Runs a build step with its output on stderr; True on success."""
    return subprocess.run(command, cwd=ROOT, stdout=sys.stderr).returncode == 0


def build():
    if shutil.which("cmake") is None:
        print("perfbench: cmake not found", file=sys.stderr)
        return None
    # Configure every time: cheap once cached, and a configure that failed
    # earlier cannot leave a cache behind that skips it.
    fresh = not (BUILD / "CMakeCache.txt").exists()
    generator = ["-G", "Ninja"] if fresh and shutil.which("ninja") else []
    if not run_quietly(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release", *generator]):
        return None
    if not run_quietly(["cmake", "--build", str(BUILD), "--target",
                        "perfbench", "-j", str(os.cpu_count() or 1)]):
        return None
    return BUILD / "perfbench"


def revision():
    """git commit when there is one, plus a digest of the built sources."""
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = ROOT / top
        files = [path] if path.is_file() else sorted(path.rglob("*"))
        for f in files:
            if f.is_file() and "__pycache__" not in f.parts:
                digest.update(str(f.relative_to(ROOT)).encode())
                digest.update(f.read_bytes())
    text = "src-sha256:" + digest.hexdigest()[:16]
    if (ROOT / ".git").exists() and shutil.which("git"):
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        if head.returncode == 0:
            text = "git:" + head.stdout.strip()[:12] + " " + text
    return text


def split_workload(args):
    """The --workload value and every other argument."""
    workload, rest = None, []
    k = 0
    while k < len(args):
        if args[k] == "--workload" and k + 1 < len(args):
            workload = args[k + 1]
            k += 2
            continue
        if args[k].startswith("--workload="):
            workload = args[k].split("=", 1)[1]
        else:
            rest.append(args[k])
        k += 1
    return workload, rest


def run_all(command, rest):
    """Runs every workload in its own process and merges their results."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        run = subprocess.run([*command, "--workload", name, *rest], cwd=ROOT,
                             stdout=subprocess.PIPE, text=True)
        sys.stdout.write(run.stdout)
        sys.stdout.flush()
        lines = run.stdout.splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            return run.returncode or 2
        status = max(status, run.returncode)
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][name + "." + metric] = value
    print(json.dumps(total))
    return status


def main():
    binary = build()
    if binary is None or not binary.exists():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    command = [str(binary), "--revision", revision()]
    workload, rest = split_workload(sys.argv[1:])
    sys.stdout.flush()
    if workload == "all":
        return run_all(command, rest)
    return subprocess.run([*command, *sys.argv[1:]], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
