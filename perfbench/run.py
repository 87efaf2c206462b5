#!/usr/bin/env python3
"""perfbench: the repository benchmark's one command.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Builds the driver (perfbench/CMakeLists.txt, Release + LTO) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs one
workload, checks its simulated outputs against an independent reference
path, and prints every metric by name and unit. The last stdout line is
one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. A correctness mismatch prints
"correct": false and exits 1. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import analysis  # noqa: E402

WORKLOADS = ("replay_ladder", "live_oltp", "serve_ingest")


def run_timeout(seconds):
    """Seconds the driver may take: the measured --seconds, plus set-up,
    reference path and (traced) layer probes. 170 s at the
    benchmark's own 20 s."""
    return 110 + 3 * seconds


def positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Run one MemorIES benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=positive_int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)  # unknown options: usage + exit 2
    if not 0 <= args.seed < 2 ** 63:
        parser.error("--seed must be in [0, 2^63)")
    return args


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(root):
    """Configure once, then build incrementally; returns the binary."""
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (root / target / "perfbench").resolve()
    jobs = str(min(4, os.cpu_count() or 1))
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(root / "perfbench"), "-B",
                        str(build_dir), "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs,
                    "--target", "perfbench"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return build_dir / "perfbench"


def expected_metrics(root, trace):
    with open(root / "BENCHMARK.json") as f:
        bench = json.load(f)
    return {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    args = parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    try:
        binary = build(root)
    except (OSError, subprocess.CalledProcessError) as err:
        log(f"perfbench: build failed: {err}")
        return 1

    out_dir = root / ".perfbench"
    stem = f"{args.workload}-seed{args.seed}" + ("-trace" if args.trace else "")
    raw_path = out_dir / f"{stem}.raw.json"
    if raw_path.exists():
        raw_path.unlink()
    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace)]
    timeout = run_timeout(args.seconds)
    try:
        subprocess.run(cmd, cwd=root, check=True, stdout=sys.stderr,
                       stderr=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"perfbench: driver stopped after {timeout} s, the limit for "
            f"--seconds {args.seconds} (110 s + 3 x --seconds)")
        return 1
    except (OSError, subprocess.CalledProcessError) as err:
        log(f"perfbench: driver failed: {err}")
        return 1

    with open(raw_path) as f:
        raw = json.load(f)
    correct, reasons = analysis.correctness(raw)
    try:
        if args.trace:
            metrics = analysis.per_layer(
                raw, analysis.load_spans(root / raw["spans_file"]))
            notes = [f"spans: {raw['spans_file']}"]
        else:
            metrics, notes = analysis.end_to_end(raw)
        want = expected_metrics(root, args.trace)
        if {n: u for n, (_, u) in metrics.items()} != want:
            raise analysis.BenchError(
                f"metrics {sorted(metrics)} do not match BENCHMARK.json "
                f"{sorted(want)}")
        line = analysis.result_line(correct, raw["attempted"],
                                    raw["failed"], metrics)
    except (analysis.BenchError, KeyError, OSError) as err:
        log(f"perfbench: {err}")
        return 1

    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"  {name:36s} {value:16.6g} {unit}")
    for note in notes:
        print(f"  # {note}")
    for reason in reasons:
        print(f"  MISMATCH {reason}")
    print(line, flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
