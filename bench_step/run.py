#!/usr/bin/env python3
"""Build bench_step from source and run one workload.

    python3 bench_step/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds into
$CARGO_TARGET_DIR (default .bench_build); later runs only check that the
build is current. With --trace 0 the last stdout line carries the end-to-end
metrics of BENCHMARK.json, with --trace 1 the per-layer metrics, plus the
Chrome trace in <build dir>/trace_<workload>.json.

    python3 bench_step/run.py --smoke --binary <path to bench_step>

runs every workload at toy size, traced, and checks that it exits 0, prints
every BENCHMARK.json metric, writes a trace with a span in every layer, and
matches the pinned seed-1 fingerprints (the bench_step_smoke ctest).
"""
import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("channel_1r", "large_1r", "scalars_1r")
LAYERS = {"core", "pencil", "fft", "banded", "vmpi", "util", "io", "analysis",
          "host"}
RUN_TIMEOUT_S = 170
SMOKE_LIMIT_S = 10.0


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then bring bench_step up to date; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no source tree at {ROOT / 'src'}; nothing to build")
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir.mkdir(parents=True, exist_ok=True)
    with open(build_dir / ".build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (build_dir / "CMakeCache.txt").is_file():
            cmd = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            subprocess.run(cmd, stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", str(build_dir), "--target",
                        "bench_step", "-j", "4"], stdout=sys.stderr, check=True)
    return build_dir / "bench_step"


def metric_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ([m["name"] for m in spec["end_to_end"]],
            [m["name"] for m in spec["per_layer"]])


def trace_layers(path):
    """Layers with at least one complete span in a Chrome trace file."""
    events = json.loads(Path(path).read_text())["traceEvents"]
    return {e["cat"] for e in events
            if e.get("ph") == "X" and e["dur"] >= 0 and "ts" in e}


def run_binary(binary, workload, seed, seconds, trace_path, smoke=False):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--tmpdir", str(Path(binary).parent)]
    if trace_path:
        cmd += ["--trace", str(trace_path)]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines.pop())
    return proc.returncode, lines, result


def measure(args):
    binary = build()
    e2e, layers = metric_names()
    wanted = layers if args.trace else e2e
    trace_path = binary.parent / f"trace_{args.workload}.json" if args.trace else None
    code, lines, result = run_binary(binary, args.workload, args.seed,
                                     args.seconds, trace_path)
    for line in lines:
        print(line)
    if result is None:
        fail(f"bench_step exited {code} without a result")
    missing = [n for n in wanted if n not in result["metrics"]]
    if missing:
        fail(f"bench_step did not report {', '.join(missing)}")
    correct = bool(result["correct"]) and code == 0
    if args.trace:
        try:
            absent = LAYERS - trace_layers(trace_path)
        except (OSError, ValueError, KeyError) as e:
            absent = {f"unreadable trace ({e})"}
        if absent:
            print(f"run.py: no spans for {', '.join(sorted(absent))}", file=sys.stderr)
            correct = False
    out = {"correct": correct, "attempted": result["attempted"],
           "failed": result["failed"],
           "metrics": {n: {"value": result["metrics"][n]["value"],
                           "unit": result["metrics"][n]["unit"]} for n in wanted}}
    print(json.dumps(out))
    return 0 if correct else 1


def smoke(binary):
    e2e, layers = metric_names()
    start = time.monotonic()
    problems = []
    for w in WORKLOADS:
        trace_path = Path(binary).parent / f"smoke_trace_{w}.json"
        code, lines, result = run_binary(binary, w, 1, 0.01, trace_path, smoke=True)
        printed = {l.split()[2] for l in lines if l.startswith("METRIC ")}
        if code != 0 or result is None or not result["correct"]:
            problems.append(f"{w}: exit {code}, correct={result and result['correct']}")
        absent = [n for n in e2e + layers if n not in printed]
        if absent:
            problems.append(f"{w}: metrics not printed: {', '.join(absent)}")
        try:
            missing_layers = LAYERS - trace_layers(trace_path)
        except (OSError, ValueError, KeyError) as e:
            missing_layers = {f"unreadable trace ({e})"}
        if missing_layers:
            problems.append(f"{w}: no spans for {', '.join(sorted(missing_layers))}")
        trace_path.unlink(missing_ok=True)
    elapsed = time.monotonic() - start
    if elapsed > SMOKE_LIMIT_S:
        problems.append(f"took {elapsed:.1f} s, limit {SMOKE_LIMIT_S} s")
    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    print(f"smoke: {len(WORKLOADS)} workloads in {elapsed:.1f} s, "
          f"{'FAILED' if problems else 'OK'}")
    return 1 if problems else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--binary")
    args = p.parse_args()
    if args.smoke:
        if not args.binary:
            p.error("--smoke needs --binary")
        return smoke(args.binary)
    if args.workload is None or args.seed is None or args.seconds is None:
        p.error("--workload, --seed and --seconds are required")
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
