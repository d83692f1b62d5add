#!/usr/bin/env python3
"""Build and run the DIFANE end-to-end benchmark.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 e2ebench/run.py --workload all [--seed N] [--seconds S]

The first form measures one workload in one process and prints, as its last
line, one JSON object with "correct", "attempted", "failed" and "metrics"
(the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1). The second form runs every workload, each in a process of its
own so that its peak RSS is its own, and prints a table of the end-to-end
metrics with their units. Both exit non-zero when an output check fails.

Each call first configures and builds e2ebench/ (which compiles ../src) in
$CARGO_TARGET_DIR/e2ebench, default .bench_build/e2ebench, under the
repository root. Extra arguments such as --size tiny pass through to the
benchmark binary.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Every workload of difane_e2e. BENCHMARK.json lists all but zipf_cached,
# whose wall-clock figures drift most with the host's load (NOTES.md).
WORKLOADS = ["zipf_cached", "mice_40k", "mice_evict_export", "policy100k_burst"]
RUN_TIMEOUT_S = 175


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "e2ebench")


def build(out):
    """Configure (once) and build the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", out, "--target", "difane_e2e", "-j", "4"],
        stdout=sys.stderr, check=True)
    return os.path.join(out, "difane_e2e")


def run_one(binary, out, args):
    """Runs the benchmark binary; returns (exit code, stdout)."""
    cmd = [binary] + args + ["--span-dir", out]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: {' '.join(cmd)} timed out", file=sys.stderr)
        return 1, ""
    return proc.returncode, proc.stdout


def run_all(binary, out, rest):
    """Every workload in its own process; a table of end-to-end metrics."""
    rows, ok = [], True
    for name in WORKLOADS:
        code, stdout = run_one(binary, out, ["--workload", name] + rest)
        lines = stdout.strip().splitlines()
        sys.stdout.write(stdout)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"run.py: {name} printed no result", file=sys.stderr)
            ok = False
            continue
        ok = ok and code == 0 and result["correct"]
        m = result["metrics"]
        fail_frac = result["failed"] / result["attempted"]
        rows.append((name, m["pkts_per_s"]["value"], m["setup_s"]["value"],
                     m["peak_rss_mib"]["value"], fail_frac))
    print()
    print(f"{'workload':<20}{'pkts_per_s (pkts/s)':>22}{'setup_s (s)':>14}"
          f"{'peak_rss_mib (MiB)':>21}{'fail_frac (ratio)':>20}")
    for name, pps, setup, rss, fail in rows:
        print(f"{name:<20}{pps:>22.0f}{setup:>14.4f}{rss:>21.1f}{fail:>20.6f}")
    return 0 if ok and len(rows) == len(WORKLOADS) else 1


def main(argv):
    out = build_dir()
    try:
        binary = build(out)
    except (subprocess.CalledProcessError, FileNotFoundError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    if "--workload" in argv:
        i = argv.index("--workload")
        if i + 1 < len(argv) and argv[i + 1] == "all":
            rest = argv[:i] + argv[i + 2:]
            if "--trace" in rest:  # the table shows end-to-end metrics only
                j = rest.index("--trace")
                del rest[j:j + 2]
            return run_all(binary, out, rest + ["--trace", "0"])
    code, stdout = run_one(binary, out, argv)
    sys.stdout.write(stdout)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
