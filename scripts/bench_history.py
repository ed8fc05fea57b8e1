#!/usr/bin/env python3
"""Appends one bench_hotpath run to a JSONL history file.

bench_hotpath emits a flat {key: number} JSON per run; CI's bench-smoke job
compares only the regression-gate key against the committed baseline and
throws the rest away. This script keeps it instead: each run becomes one
line of BENCH_history.jsonl, stamped with a UTC timestamp, the git
revision, the run mode (quick or full, from the results' "quick" key), the
host's CPU count and CPU model, so perf trends across PRs can be plotted
from the repo alone.

A --quick run and a full run time different amounts of work, so their
numbers do not trend against each other. The script refuses to append a
run whose mode differs from the previous entry with the same --label;
give the other mode its own label.

Usage: bench_history.py RESULTS.json [--history BENCH_history.jsonl]
                        [--label LABEL]

Exits non-zero if the results file is missing, is not a JSON object, has no
"quick" key, or would mix modes under one label.
"""
import argparse
import datetime
import json
import os
import pathlib
import platform
import subprocess
import sys


def git_rev():
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def mode_of(results):
    """'quick' or 'full' from bench_hotpath's "quick" key, else None."""
    quick = results.get("quick")
    if quick is None:
        return None
    return "quick" if quick else "full"


def last_mode(history, label):
    """The mode of the last entry in `history` with this label, else None.
    Entries written before modes were stamped carry it in their results."""
    if not history.exists():
        return None
    mode = None
    for line in history.read_text().splitlines():
        try:
            entry = json.loads(line)
        except json.JSONDecodeError:
            continue
        if not isinstance(entry, dict) or entry.get("label", "") != label:
            continue
        mode = entry.get("mode") or mode_of(entry.get("results", {}))
    return mode


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("results", help="bench_hotpath JSON output file")
    parser.add_argument("--history", default="BENCH_history.jsonl",
                        help="JSONL file to append to (default: %(default)s)")
    parser.add_argument("--label", default="",
                        help="free-form tag for this run (e.g. CI job name)")
    args = parser.parse_args()

    path = pathlib.Path(args.results)
    try:
        results = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as err:
        sys.exit(f"bench_history: cannot read {path}: {err}")
    if not isinstance(results, dict):
        sys.exit(f"bench_history: {path} is not a flat JSON object")
    mode = mode_of(results)
    if mode is None:
        sys.exit(f"bench_history: {path} has no \"quick\" key, so its mode "
                 "is unknown")

    history = pathlib.Path(args.history)
    previous = last_mode(history, args.label)
    if previous is not None and previous != mode:
        name = f"label {args.label!r}" if args.label else "the unlabelled runs"
        sys.exit(f"bench_history: {history} holds {previous} runs under "
                 f"{name}; refusing to append a {mode} run to that trend "
                 "(give it its own --label)")

    entry = {
        "time": datetime.datetime.now(datetime.timezone.utc)
            .strftime("%Y-%m-%dT%H:%M:%SZ"),
        "rev": git_rev(),
        "mode": mode,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "results": results,
    }
    if args.label:
        entry["label"] = args.label

    with history.open("a") as out:
        out.write(json.dumps(entry, sort_keys=True) + "\n")
    print(f"bench_history: appended {mode} run {path} @ {entry['rev']} "
          f"-> {history}")


if __name__ == "__main__":
    main()
