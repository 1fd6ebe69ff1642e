#!/usr/bin/env python3
"""The repository benchmark: one command per workload run.

    python3 perfbench/run.py --workload offload_pixels --seed 1 --seconds 45 --trace 0

Run from the repository root. The first call builds perfbench/ (a CMake
package that compiles the simulator from ../src in Release) into
.bench_build/perfbench; later calls rebuild only what changed.

Each call runs one workload in its own process, then checks its outputs:

  * every timed repeat of the harness call reproduces the same modelled
    outcome (sessions: all sim-time metrics; fleet_churn: the soak
    fingerprint) and fleet_churn reports 0 invariant violations;
  * --trace 1 also requires that replayed pixels equal a direct local render,
    that Turbo decode(encode) stays within the codec's quality bound, that
    every cache-decoded frame equals the recorded one, and that tracing leaves
    a session's outcome unchanged.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are BENCHMARK.json's
end_to_end list, with --trace 1 its per_layer list, each with its unit. If a
check fails, the metrics are withheld and the exit code is 1.
"""
import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
EXE = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170
# fleet_churn runs like the others but is left out of BENCHMARK.json's
# workload list (see README.md, "Workloads").
WORKLOADS = ("offload_pixels", "fleet_churn", "multidevice_lossy")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)


def end_to_end(raw):
    # Host costs are the best of the identical repeats: contention from other
    # work on the host only ever slows a repeat down. The modelled figures
    # are equal in every repeat (checked), so the first one stands for all.
    reps = raw["repeats"]
    first = reps[0]
    shown = first["frames_displayed"]
    return {
        "frames_per_host_s": max(
            r["frames_displayed"] / r["wall_s"] for r in reps),
        "host_cpu_ms_per_frame": min(
            1000.0 * r["cpu_s"] / r["frames_displayed"] for r in reps),
        "setup_s": statistics.median(raw["setup_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
        "frames_delivered_pct":
            100.0 * shown / (shown + first["frames_failed"]),
        "sim_fps_per_user": first["fps_per_user"],
    }


def check(raw, session):
    """Returns (attempted, failed, problems) over the run's checked outputs."""
    problems = []
    runs = raw["repeats"] + raw.get("traced", [])
    reference = raw["repeats"][0]["signature"]
    failed = 0
    for i, run in enumerate(runs):
        bad = []
        traced = i >= len(raw["repeats"])
        if run["frames_displayed"] <= 0:
            bad.append("no frame displayed")
        if run["violations"] != 0:
            bad.append(f"{run['violations']:.0f} invariant violations")
        # A traced soak samples one more drift gauge (the tracer's open
        # spans), so its fingerprint differs by design.
        if run["signature"] != reference and (session or not traced):
            bad.append("outcome differs from the first repeat: "
                       f"{run['signature']} vs {reference}")
        if bad:
            failed += 1
            problems += [f"run {i}: {b}" for b in bad]
    attempted = len(runs)
    if "checks" in raw:
        attempted += 1
        c = raw["checks"]
        bad = [name for name in ("pixels_match", "cache_roundtrip",
                                 "codec_quality") if not c[name]]
        if bad:
            failed += 1
            problems.append(f"layer probes failed {bad} (min PSNR "
                            f"{c['min_psnr_db']} dB, decode failed "
                            f"{c['decode_failed']})")
    return attempted, failed, problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    try:
        build()
        proc = subprocess.run(
            [EXE, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", repr(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S,
            check=True)
    except (OSError, subprocess.SubprocessError) as e:
        log(f"build or run failed: {e}")
        return 1
    raw = json.loads(proc.stdout.strip().splitlines()[-1])

    session = args.workload != "fleet_churn"
    attempted, failed, problems = check(raw, session)
    values = raw["layers"] if args.trace else end_to_end(raw)
    missing = [m["name"] for m in wanted
               if not math.isfinite(values.get(m["name"], math.nan))]
    if missing:
        problems.append(f"metrics not measured: {missing}")
    correct = not problems
    metrics = {}
    if correct:
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in wanted}
    else:
        for p in problems:
            log(p)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
