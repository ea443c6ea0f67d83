#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds the harness (perfbench/harness)
and the CLI with dune, generates the workload's inputs from the seed
(perfbench/mix.py), runs the harness, checks its outputs, and prints a
detail line (environment, sample counts, percentiles) followed by the
result line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics.  The workloads and the metric
definitions are described in perfbench/METRICS.md.  Exits non-zero,
without a result line, when the program cannot be built or run.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import mix  # noqa: E402
import pbstats  # noqa: E402

WORKLOADS = ("figures-cold", "verified-store")
LOOPS = 295  # the workloads run on this sample of the suite
# The latency probe: every fourth point of the key space, the same for
# every seed.
PROBE_POINTS = len(mix.GRID) * len(mix.REGISTERS) * LOOPS // 4
SUBSET_POINTS = 300  # points of the traced replication
RATE = 200  # open-loop slots per second of verified-store's traced serve phase
SERVE_PHASE_S = 5  # its open-loop window
HARNESS = "_build/default/perfbench/harness/pb.exe"
CLI = "_build/default/bin/widening_cli.exe"
RUN_LIMIT_S = 170  # the harness is stopped after this many seconds


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of a checkout of the repository (no dune-project or lib/ here)", 2)
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "./" + HARNESS[len("_build/default/"):],
           "./" + CLI[len("_build/default/"):]]
    try:
        proc = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except FileNotFoundError:
        fail("dune is not installed")
    if proc.returncode != 0:
        fail(f"build failed: {' '.join(cmd)}")


def source_digest():
    """Digest of the sources the benchmark builds, for checkouts that are
    not git repositories."""
    h = hashlib.sha256()
    for top in ("lib", "bin", "perfbench"):
        for dirpath, dirnames, files in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_harness(args, work, loops):
    cmd = [
        os.path.abspath(HARNESS), args.workload, "--loops", str(loops),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--work", work, "--cli", os.path.abspath(CLI), "--jobs", str(os.cpu_count() or 1),
        "--golden", os.path.abspath("test/golden"),
        "--reference", os.path.abspath("perfbench/reference.txt"),
    ]
    # The program's own WR_* switches (verify, store, strict, jobs...) would
    # change what is measured.
    env = {k: v for k, v in os.environ.items() if not k.startswith("WR_")}
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, env=env,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"harness did not finish within {RUN_LIMIT_S} s")
    finally:
        # The harness reaps its serve child on exit; this catches a crash.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        fail(f"harness exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        fail("harness printed nothing")
    return json.loads(lines[-1])


def end_to_end(raw):
    lat = raw["latency_ms"]
    if pbstats.beyond(len(lat), 99.0) < 10:
        fail(f"{len(lat)} latency samples are too few for p99")
    return {
        "setup_s": pbstats.median(raw["setup_s"]),
        "wall_s": pbstats.median(raw["wall_s"]),
        "warm_s": pbstats.median(raw["warm_s"]),
        # Each pass evaluates the same points, so this is a constant over
        # wall_s: the reciprocal view of the same samples.
        "points_per_s": pbstats.median([f / w for f, w in zip(raw["fresh"], raw["wall_s"])]),
        "p50_ms": pbstats.median(lat),
        "p99_ms": pbstats.percentile(lat, 99.0),
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1", 2)

    build()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)

    work = os.path.abspath(os.path.join("perfbench", ".work", args.workload))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    inputs = mix.write_inputs(work, args.workload, args.seed, RATE, LOOPS, PROBE_POINTS,
                              SUBSET_POINTS, SERVE_PHASE_S)
    # Runs start and end with no writeback pending, so that one run's
    # store and ledger files are not flushed (or discarded) inside the next.
    os.sync()
    started = time.time()
    raw = run_harness(args, work, LOOPS)
    harness_s = time.time() - started
    shutil.rmtree(work)
    os.sync()

    attempted = raw["attempted"]
    failed = len(raw["failures"])
    names = "per_layer" if args.trace else "end_to_end"
    if args.trace:
        # A layer the workload does not run reports 0; a name the harness
        # reports but BENCHMARK.json lacks is a typo.
        known = {m["name"] for m in bench["per_layer"]}
        unknown = sorted(set(raw["layers"]) - known)
        if unknown:
            fail(f"harness reported unknown layers {', '.join(unknown)}")
        values = {m["name"]: 0.0 for m in bench["per_layer"]}
        values.update(raw["layers"])
        values["failed_ratio"] = failed / attempted
    else:
        values = end_to_end(raw)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in bench[names]}

    lag = raw["lag_ms"]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": dict(raw["env"], commit=git_commit(), source_sha256=source_digest(),
                    serve_rate_slots_per_s=RATE if args.workload == "verified-store" else None,
                    generator_lag_ms=pbstats.summary(lag) if lag else None,
                    harness_s=harness_s),
        "inputs": inputs,
        "samples": {k: pbstats.summary(raw[k])
                    for k in ("setup_s", "wall_s", "warm_s", "cpu_s", "latency_ms") if raw[k]},
        "failed_ratio": failed / attempted,
        "failures": raw["failures"][:10],
        "digests": raw["digests"],
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
