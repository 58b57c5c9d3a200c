#!/usr/bin/env python3
"""End-to-end benchmark of the A3C-S reproduction (see perfbench/README.md).

    python3 perfbench/run.py --workload cosearch|train_eval|serve \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds perfbench/ (the repository's
libraries, examples/predictor_server and the benchmark binary) with CMake
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs one
workload and prints, as the last line of stdout, one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1, each
with the unit BENCHMARK.json gives it. The binary prints every value it
measured; a per-layer metric of a layer the workload does not touch reads 0.
Exits non-zero when the build, a correctness check or a step fails.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
WORKLOADS = ("cosearch", "train_eval", "serve")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the bin dir."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"no A3C-S sources under {ROOT / 'src'}")
    if not (build_dir / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs, "--target",
                    "a3cs_perfbench", "predictor_server"],
                   check=True, stdout=sys.stderr)
    return build_dir


def metric_specs(trace):
    """(name, unit) of every metric BENCHMARK.json names for the mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]]


def run_binary(bin_dir, args, work_dir):
    """Runs one workload in its own process group; returns (code, stdout)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("A3CS_")}
    cmd = [str(bin_dir / "a3cs_perfbench"), "--workload", args.workload,
           "--seed", str(args.seed % 2**64), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", str(work_dir),
           "--server", str(bin_dir / "predictor_server")]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{args.workload} did not finish in {RUN_TIMEOUT_S} s")
    finally:
        # The benchmark stops its server; this only catches a crash.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = (ROOT / target / "perfbench").resolve()
    try:
        bin_dir = build(build_dir)
        specs = metric_specs(args.trace)
        work_dir = build_dir / "runs"
        work_dir.mkdir(parents=True, exist_ok=True)
        code, out = run_binary(bin_dir, args, work_dir)
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        log(f"error: {e}")
        return 2

    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log(f"{args.workload} printed no result (exit code {code})")
        return code or 3
    measured = result.get("metrics", {})
    missing = [name for name, _ in specs if name not in measured]
    if missing and not args.trace:
        log(f"{args.workload} did not measure {', '.join(missing)}")
        return 3
    if missing:
        log(f"not touched by {args.workload} (reported as 0): "
            f"{', '.join(missing)}")
    result["metrics"] = {name: {"value": measured.get(name, 0.0), "unit": unit}
                         for name, unit in specs}
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
