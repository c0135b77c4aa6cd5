#!/usr/bin/env python3
"""Build and run the end-to-end benchmark of the pstl stack.

    python3 e2ebench/run.py --workload bulk|fine|jobs --seed N \
        --seconds S --trace 0|1

Run from the repository root. Builds the benchmark package in this
directory (into $CARGO_TARGET_DIR, default .bench_build) and runs it.

--trace 0 runs the plain build for S seconds and prints the end-to-end
metrics. --trace 1 runs the plain build for S/2 seconds (untraced op
latency) and then the build with the executor's histograms for S/2
seconds with the benchmark's spans on, and prints the per-layer metrics
plus trace.overhead, the traced op p50 over the untraced one. The spans
of the first ops go to $CARGO_TARGET_DIR/spans/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The exit code is 0 only when
every op and every conservation check passed.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
WORKLOADS = ("bulk", "fine", "jobs")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build(target_dir, features):
    """Build one variant; return the path of its binary."""
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(HERE / "Cargo.toml"),
        "--target-dir", str(target_dir),
    ] + (["--features", features] if features else [])
    subprocess.run(cmd, check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return target_dir / "release" / "e2ebench"


def run(binary, args):
    """Run the benchmark binary; echo its report, return (json, exit code)."""
    # Fixed glibc malloc thresholds: buffers up to 32 MiB come from the
    # heap, and freed heap memory stays mapped. glibc's default dynamic
    # threshold does the same once a large buffer has been freed, but
    # whether a freed 8 MiB sort buffer stays resident then differs from
    # run to run, and with it peak RSS.
    env = dict(os.environ, MALLOC_MMAP_THRESHOLD_="33554432",
               MALLOC_TRIM_THRESHOLD_="1073741824")
    proc = subprocess.run(
        [str(binary)] + [str(a) for a in args],
        stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S, env=env,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{binary.name} printed nothing (exit {proc.returncode})")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1]), proc.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    plain = build(target, None)
    hist = build(target / "hist", "hist")
    common = ["--workload", a.workload, "--seed", a.seed]

    if not a.trace:
        result, code = run(plain, common + ["--seconds", a.seconds, "--trace", 0])
    else:
        half = a.seconds / 2
        untraced, code_u = run(plain, common + ["--seconds", half, "--trace", 0, "--setups", 1])
        spans = target / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        traced, code_t = run(hist, common + [
            "--seconds", half, "--trace", 1, "--setups", 1,
            "--spans", spans / f"{a.workload}-{a.seed}.jsonl",
        ])
        metrics = traced["metrics"]
        base = untraced["metrics"]["op_p50_us"]["value"]
        metrics["trace.overhead"] = {
            "value": metrics["e2e.traced_op_p50_us"]["value"] / base,
            "unit": "ratio",
        }
        result = {
            "correct": untraced["correct"] and traced["correct"],
            "attempted": untraced["attempted"] + traced["attempted"],
            "failed": untraced["failed"] + traced["failed"],
            "metrics": metrics,
        }
        code = code_u or code_t
        print(f"  {'trace.overhead':<28} {metrics['trace.overhead']['value']:>14.4f} ratio")
    print(json.dumps(result))
    return 0 if code == 0 and result["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.SubprocessError, OSError, RuntimeError, ValueError, KeyError) as e:
        print(f"e2ebench: {e}", file=sys.stderr)
        sys.exit(1)
