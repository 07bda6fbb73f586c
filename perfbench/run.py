#!/usr/bin/env python3
"""The repository benchmark's command (see BENCHMARK.json).

    python3 perfbench/run.py --workload rpc_mix --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Builds perfbench/ (which compiles the
libraries under src/) into $CARGO_TARGET_DIR, default .bench_build, runs
one workload through the oopp_perfbench program, and prints its table
followed, as the last line, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end_to_end metrics of BENCHMARK.json,
each of which must have been measured; with --trace 1 they are the
per_layer metrics, where a metric the workload does not exercise (for
instance fft.slabs on rpc_mix) reads 0.  Exits nonzero when the build
fails, the program fails, or any output check fails.  Everything the run
writes stays under the build directory.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configure once, then build incrementally; build output to stderr."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cfg = subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                              "-DCMAKE_BUILD_TYPE=Release"],
                             stdout=sys.stderr, stderr=sys.stderr)
        if cfg.returncode != 0:
            return None
    jobs = str(max(1, min(3, os.cpu_count() or 1)))
    made = subprocess.run(["cmake", "--build", build_dir, "-j", jobs,
                           "--target", "oopp_perfbench"],
                          stdout=sys.stderr, stderr=sys.stderr)
    if made.returncode != 0:
        return None
    return os.path.join(build_dir, "oopp_perfbench")


def select(result, spec, trace):
    """Keep exactly the metrics BENCHMARK.json declares for this mode."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    measured = result["metrics"]
    out, unexercised = {}, []
    for m in declared:
        name = m["name"]
        if name in measured:
            if measured[name]["unit"] != m["unit"]:
                raise ValueError(f"{name}: unit {measured[name]['unit']} "
                                 f"but BENCHMARK.json says {m['unit']}")
            out[name] = measured[name]
        elif trace:
            out[name] = {"value": 0, "unit": m["unit"]}
            unexercised.append(name)
        else:
            raise ValueError(f"end-to-end metric {name} was not measured")
    if unexercised:
        print("not exercised by this workload (reported as 0): "
              + ", ".join(unexercised))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        log(f"unknown workload {args.workload}")
        return 2

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(build_dir)
    if binary is None:
        log("build failed")
        return 1

    workdir = os.path.abspath(os.path.join(build_dir, "work",
                                           f"{args.workload}-{os.getpid()}"))
    os.makedirs(workdir, exist_ok=True)
    env = dict(os.environ, TMPDIR=workdir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    # Own process group: the program forks its set-up children, and a
    # timeout must stop them too.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True,
                            start_new_session=True)

    def stop(signum, _frame):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        stdout, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"timed out after {TIMEOUT_S} s")
        shutil.rmtree(workdir, ignore_errors=True)
        return 1
    spans = os.path.join(workdir, f"spans_{args.workload}.json")
    if os.path.exists(spans):
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        shutil.move(spans, os.path.join(traces, os.path.basename(spans)))
    shutil.rmtree(workdir, ignore_errors=True)

    lines = stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]))
    try:
        result = json.loads(lines[-1])
        metrics = select(result, spec, args.trace)
    except (ValueError, KeyError, IndexError) as e:
        log(f"bad result from {binary}: {e}")
        return 1
    out = {"correct": bool(result["correct"]) and proc.returncode == 0,
           "attempted": int(result["attempted"]),
           "failed": int(result["failed"]),
           "metrics": metrics}
    print(json.dumps(out), flush=True)
    return 0 if out["correct"] and out["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
