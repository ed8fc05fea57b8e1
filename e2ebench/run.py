#!/usr/bin/env python3
"""End-to-end benchmark of the LVRM simulator: host cost per frame, measured
end to end and by layer, on three simulated worlds.

    python3 e2ebench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                            [--trace 0|1]

--seconds defaults to run_seconds in BENCHMARK.json.

Run from the repository root. The first run builds the library sources and
the runner into .bench_build/ (about a minute on four cores); later runs
reuse the build. --trace 0 prints the end-to-end metrics, --trace 1 the
per-layer metrics of a separate traced run. Every metric is printed by name
with its unit, median, quartiles and sample count; the last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}.

The correctness checks (conservation by drop cause, per-flow FIFO, RSS
shard affinity, and bit-identical simulated results across repetitions)
run on every invocation. A violation makes "correct" false, counts in
"failed", and the exit code is 1. A build or usage error exits 2 or 3
without printing a result.

Each invocation appends one record per workload to
.bench_build/records.jsonl: the metadata (nproc, CPU model, build type,
compiler, revision, seed, run length, repetitions) and, per metric, the
median, quartiles and sample count. The traced run also writes its spans to
.bench_build/spans/<workload>.csv. See e2ebench/README.md for the workloads
and the metric definitions.
"""
import argparse
import fcntl
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
BINARY = os.path.join(CMAKE_DIR, "e2ebench")
BUILD_TYPE = "RelWithDebInfo"
WORKLOADS = ["udp_small_frames", "ram_zipf_flows", "tcp_ftp_100"]


def fail(code, msg):
    print(f"e2ebench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configures once and rebuilds incrementally; serialized by a lock."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail(3, f"no library sources at {os.path.join(ROOT, 'src')}")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(BUILD, "lock"), "w") as lock, open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", CMAKE_DIR,
                          f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
        steps.append(["cmake", "--build", CMAKE_DIR, "-j", jobs])
        # The compiler's temporary files stay inside the checkout too.
        tmp = os.path.join(BUILD, "tmp")
        os.makedirs(tmp, exist_ok=True)
        env = dict(os.environ, TMPDIR=tmp)
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              env=env).returncode:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-20:]))
                fail(3, "build failed: " + " ".join(cmd))


def source_digest():
    """Content hash of everything the benchmark builds, for checkouts that
    are not git repositories."""
    h = hashlib.sha256()
    for base in ("src", "e2ebench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, base))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_revision():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def cmake_cache(key):
    try:
        with open(os.path.join(CMAKE_DIR, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def compiler():
    cxx = cmake_cache("CMAKE_CXX_COMPILER")
    try:
        out = subprocess.run([cxx, "--version"], capture_output=True, text=True,
                             timeout=10)
        return out.stdout.splitlines()[0] if out.returncode == 0 else cxx
    except (OSError, subprocess.SubprocessError, IndexError):
        return cxx


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metadata(args):
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
        "compiler": compiler(),
        "git_revision": git_revision(),
        "source_digest": source_digest(),
        "seed": args.seed,
        "run_seconds": args.seconds,
        "trace": args.trace,
        "threads": 1,
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def summarize(samples):
    """Median, quartiles (as statistics.quantiles(n=4) gives them) and n."""
    n = len(samples)
    med = statistics.median(samples)
    q1, q3 = med, med
    if n > 1:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    return {"value": med, "q1": q1, "q3": q3, "n": n}


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def declared_metrics(trace):
    spec = benchmark_spec()
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_workload(workload, args):
    cmd = [BINARY, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(BUILD, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans-out", os.path.join(spans_dir, workload + ".csv")]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode not in (0, 1) or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        fail(3, f"{workload}: runner exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    # The run length the bounds in BENCHMARK.json were set at.
    p.add_argument("--seconds", type=float,
                   default=benchmark_spec()["run_seconds"])
    p.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = p.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail(2, "--seed must be >= 0 and --seconds > 0")

    build()
    declared = declared_metrics(args.trace)
    meta = metadata(args)
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        raw = run_workload(workload, args)
        stats = {name: dict(summarize(m["samples"]), unit=m["unit"])
                 for name, m in raw["metrics"].items()}
        missing = [name for name in declared if name not in stats]
        if missing:
            fail(3, f"{workload}: runner did not report {missing}")
        record = dict(meta, workload=workload, reps=raw["reps"],
                      attempted=raw["attempted"], failed=raw["failed"],
                      input_digest=raw["input_digest"],
                      fingerprint=raw["fingerprint"], notes=raw["notes"],
                      metrics=stats)
        with open(os.path.join(BUILD, "records.jsonl"), "a") as f:
            f.write(json.dumps(record) + "\n")

        print(f"== {workload}  seed={args.seed} trace={args.trace} "
              f"reps={raw['reps']} nproc={meta['nproc']} "
              f"build={meta['build_type']} rev={meta['git_revision'][:12]} "
              f"src={meta['source_digest']}")
        for name, s in stats.items():
            print(f"  {name:38s} {s['value']:14.6g} {s['unit']:9s}"
                  f" q1={s['q1']:.6g} q3={s['q3']:.6g} n={s['n']}")
        ok = raw["failed"] == 0
        print(f"  checks: {'ok' if ok else 'FAILED'}  attempted={raw['attempted']}"
              f" failed={raw['failed']}")
        for note in raw["notes"]:
            print(f"    {note}")
        result["correct"] &= ok
        result["attempted"] += raw["attempted"]
        result["failed"] += raw["failed"]
        prefix = "" if len(workloads) == 1 else workload + ":"
        for name in declared:
            result["metrics"][prefix + name] = {"value": stats[name]["value"],
                                                "unit": stats[name]["unit"]}
    sys.stdout.flush()
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
