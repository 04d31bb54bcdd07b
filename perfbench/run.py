#!/usr/bin/env python3
"""Benchmark entry point: build the simulator, run one workload, check it.

    python3 perfbench/run.py --workload group-alltoall --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. The benchmark binary is built from ../src
with CMake into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
on first use. Each workload then runs in its own single-threaded process:

  1. `verify`: a byte-backed data pass and a full-scale pass under the
     protocol-invariant checker;
  2. `measure`: fresh Worlds run back to back for --seconds. With --trace 0
     the end-to-end metrics are reported; with --trace 1 traced Worlds
     alternate with untraced ones and the per-layer metrics are reported.

Every metric is printed by name with its unit, after a stamp (host cores,
build type, compiler, git commit, source hash), virt_digest and the raw
host times (reported host times are scaled to a reference host speed; see
NOTES.md). A full
record, and with --trace 1 the spans as Chrome trace-event JSON, is written
under the build directory's records/. The last stdout line is the JSON
result: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

WORKLOADS = ("group-alltoall", "basic-exchange", "host-alltoall", "hpl-ring")

END_TO_END = {
    "sim_wall_s": "s",
    "host_op_ms_p50": "ms",
    "host_op_ms_tail": "ms",
    "virt_op_us_p50": "us",
    "virt_cold_op_us": "us",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "sim.events_per_op": "count",
    "sim.host_ns_per_event": "ns",
    "sim.dispatch_ns_per_event": "ns",
    "fabric.wire_msgs_per_op": "count",
    "fabric.pcie_msgs_per_op": "count",
    "fabric.wire_bytes_per_op": "B",
    "fabric.host_ns_per_msg": "ns",
    "fabric.wire_busy_us_per_op": "us",
    "fabric.pcie_busy_us_per_op": "us",
    "verbs.registrations_per_op": "count",
    "offload.ctrl_msgs_per_op": "count",
    "offload.group_cache_hit_ratio": "ratio",
    "offload.group_cache_lookups_per_op": "count",
    "offload.gvmi_cache_hit_ratio": "ratio",
    "offload.gvmi_cache_lookups_per_op": "count",
    "mpi.reg_cache_hit_ratio": "ratio",
    "mpi.reg_cache_lookups_per_op": "count",
    "offload.proxy_jobs_per_op": "count",
    "offload.retries": "count",
    "offload.dup_dropped": "count",
    "offload.post_virt_us": "us",
    "offload.wait_virt_us": "us",
    "mpi.post_virt_us": "us",
    "mpi.wait_virt_us": "us",
    "mpi.barrier_virt_us": "us",
    "apps.bcast_wait_virt_us": "us",
    "apps.compute_virt_us": "us",
    "host_op_ms_growth": "ratio",
    "tracing_overhead_pct": "%",
    "host_op_tail_pctl": "pctl",
    "host_op_samples": "count",
    "failed_op_frac": "frac",
    "host.probe_ms": "ms",
}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
    return target / "perfbench"


def build(out):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no simulator sources at {ROOT / 'src'}; run from a source checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", str(out), "-j", jobs]]
    if not (out / "CMakeCache.txt").is_file():
        steps.insert(0, ["cmake", "-S", str(BENCH), "-B", str(out),
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only results.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return out / "perfbench_bench"


def drive(exe, args, timeout):
    """Runs the benchmark binary in its own process; returns its JSON result line."""
    try:
        proc = subprocess.run([str(exe), *args], capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"perfbench_bench timed out after {timeout} s: {' '.join(args)}")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"perfbench_bench exited with {proc.returncode}: {' '.join(args)}")
    return json.loads(lines[-1])


def git_commit():
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    return "unknown (not a git checkout)"


def source_hash():
    """SHA-1 over the simulator and benchmark sources: identifies the code
    measured even where there is no git metadata."""
    h = hashlib.sha1()
    for top in (ROOT / "src", BENCH):
        for f in sorted(p for p in top.rglob("*") if p.is_file()):
            if "__pycache__" in f.parts:
                continue
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    out = build_dir()
    exe = build(out)
    records = out / "records"
    records.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    verified = drive(exe, ["verify", *common], timeout=90)
    measure_args = ["measure", *common, "--seconds", str(args.seconds),
                    "--trace", str(args.trace)]
    if args.trace:
        measure_args += ["--spans", str(records / f"spans-{tag}.json")]
    measured = drive(exe, measure_args, timeout=int(2 * args.seconds) + 60)

    names = PER_LAYER if args.trace else END_TO_END
    values = measured["layer"] if args.trace else measured["e2e"]
    missing = sorted(set(names) - set(values))
    if missing:
        fail("perfbench_bench did not report: " + ", ".join(missing))
    metrics = {k: {"value": values[k], "unit": u} for k, u in names.items()}

    stamp = {
        "host_cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "build_type": measured["build_type"],
        "compiler": measured["compiler"],
        "git_commit": git_commit(),
        "source_sha1": source_hash(),
    }
    correct = bool(verified["ok"] and measured["ok"])
    attempted = int(verified["attempted"] + measured["attempted"])
    failed = int(verified["failed"] + measured["failed"])
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "stamp": stamp, "verify": verified,
              "measure": measured, "metrics": metrics}
    record_path = records / f"{tag}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{measured['worlds']:g} Worlds x {measured['ops_per_world']:g} ops, "
          f"tail = p{measured['tail_pctl']:g} of {measured['host_op_samples']:g} warm ops")
    print("stamp: " + ", ".join(f"{k}={v}" for k, v in stamp.items()))
    print(f"virt_digest = {measured['virt_digest']}")
    print("raw host times: " + ", ".join(f"{k}={v:.6g}" for k, v in measured["raw"].items()))
    if "failed_op_frac" not in metrics:
        print(f"failed_op_frac = {measured['failed_op_frac']:g} frac")
    for k, m in metrics.items():
        print(f"{k} = {m['value']:.10g} {m['unit']}")
    for err in (verified["error"], measured["error"]):
        if err:
            print(f"error: {err}")
    print(f"record: {record_path}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
