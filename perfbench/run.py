#!/usr/bin/env python3
"""The repo benchmark: builds librap and the perfbench driver, runs one
workload, checks its outputs and prints every metric.

    python3 perfbench/run.py --workload metro_grid --seed 1 --seconds 30 --trace 0

Workloads (BENCHMARK.json says why each was chosen):
  metro_grid   batch placement on a 65x65 grid city (ALT detour engine)
  paper_sweep  the paper's Section V pipeline on a Dublin-like city
  serve_mix    an open-loop request mix against a rap_serve child process

--trace 0 reports the end-to-end metrics; --trace 1 reports the per-layer
metrics, writes a rap.trace.v1 timeline under the build directory and
prints the per-layer self-time table. --smoke runs tiny inputs (tests).

The last line of standard output is one JSON object with exactly the keys
correct, attempted, failed and metrics. Everything else (the metric table,
provenance) comes before it; build output goes to standard error. Run from
the repository root; the build goes to $CARGO_TARGET_DIR (default
.bench_build) under it.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("metro_grid", "paper_sweep", "serve_mix")
# A run must end within this many seconds (the build is timed separately).
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def nproc():
    return len(os.sched_getaffinity(0))


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return base / "perfbench"


def build():
    """Configures once, then builds incrementally. Release only: the driver
    refuses to report from Debug or sanitizer builds."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"librap sources not found under {ROOT}/src")
    out = build_dir()
    if not (ROOT / out / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(out), *generator,
             "-DCMAKE_BUILD_TYPE=Release"],
            cwd=ROOT, stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", str(out), "--parallel", str(nproc()),
         "--target", "perfbench", "rap_serve_tool"],
        cwd=ROOT, stdout=sys.stderr, check=True)
    return out


def commit_id():
    """git describe when the tree is a git checkout, else a hash of every
    source file the benchmark builds from."""
    if (ROOT / ".git").exists():
        result = subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=ROOT,
            capture_output=True, text=True)
        if result.returncode == 0:
            return result.stdout.strip()
    digest = hashlib.sha1()
    for top in ("src", "tools", "cmake", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "tree-" + digest.hexdigest()[:12]


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def run_driver(out, args):
    """Runs the driver in its own process group, so a timeout also stops
    the rap_serve children it started."""
    # Relative to the root, so unix socket paths under it stay short.
    work = Path(os.path.relpath(ROOT / out / "work", ROOT))
    (ROOT / work).mkdir(parents=True, exist_ok=True)
    command = [
        str(out / "perfbench"), f"--workload={args.workload}",
        f"--seed={args.seed}", f"--seconds={args.seconds}",
        f"--trace={args.trace}", f"--work-dir={work}",
        f"--serve-binary={out / 'rap_serve'}", f"--commit={commit_id()}",
    ]
    if args.smoke:
        command.append("--smoke")
    process = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                               text=True, start_new_session=True)
    try:
        stdout, _ = process.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        if process.poll() is None:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
    if process.returncode != 0:
        fail(f"driver exited with status {process.returncode}")
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        fail("driver printed no result")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")
    threads = os.environ.get("RAP_THREADS")
    if threads and int(threads) > nproc():
        fail(f"RAP_THREADS={threads} exceeds the {nproc()} available cores")

    out = build()
    result = run_driver(out, args)

    # Every declared metric, and nothing else, with its declared unit.
    declared = declared_metrics(args.trace)
    metrics = result["metrics"]
    if sorted(metrics) != sorted(m["name"] for m in declared):
        fail("driver metrics do not match BENCHMARK.json: " +
             str(sorted(set(metrics) ^ {m["name"] for m in declared})))
    print(f"# workload {args.workload} seed {args.seed} "
          f"seconds {args.seconds} trace {args.trace}")
    # Provenance (commit, build type, nproc, threads, steal) and counts.
    for key, value in sorted(result.get("info", {}).items()):
        print(f"# {key}: {value}")
    for m in declared:
        value = metrics[m["name"]]
        if value["unit"] != m["unit"]:
            fail(f"{m['name']}: unit {value['unit']} != declared {m['unit']}")
        print(f"{m['name']:40s} {value['value']:>16.6g} {m['unit']:10s} "
              f"{m['better']} is better")
    print(json.dumps({
        "correct": bool(result["correct"]) and result["failed"] == 0,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
