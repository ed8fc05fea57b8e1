#!/usr/bin/env python3
"""Regenerate the golden simulated outputs under tests/golden/.

Usage:
    python3 scripts/regen_golden.py [--build-dir build] [bench ...]

Runs every bench listed in tests/golden/benches.txt (or only the named ones)
from <build-dir>/bench with `--csv --scale=<listed scale>` and rewrites
tests/golden/<bench>.csv. For each file that changed it prints the moved rows
as a unified diff; a change that regenerates a golden file names those rows
in CHANGES.md. Build the benches first (`cmake --build <build-dir>`).
"""

import argparse
import difflib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN_DIR = os.path.join(ROOT, "tests", "golden")


def read_manifest():
    """Returns [(bench, scale)] from tests/golden/benches.txt."""
    entries = []
    with open(os.path.join(GOLDEN_DIR, "benches.txt")) as f:
        for line in f:
            fields = line.split("#", 1)[0].split()
            if fields:
                entries.append((fields[0], fields[1]))
    return entries


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build-dir", default=os.path.join(ROOT, "build"))
    ap.add_argument("benches", nargs="*",
                    help="benches to regenerate (default: all listed)")
    args = ap.parse_args()

    manifest = read_manifest()
    known = {bench for bench, _ in manifest}
    unknown = [b for b in args.benches if b not in known]
    if unknown:
        sys.exit("not in tests/golden/benches.txt: " + ", ".join(unknown))
    wanted = set(args.benches) or known

    changed = 0
    for bench, scale in manifest:
        if bench not in wanted:
            continue
        exe = os.path.join(args.build_dir, "bench", bench)
        run = subprocess.run([exe, "--csv", f"--scale={scale}"],
                             capture_output=True, text=True)
        if run.returncode != 0:
            sys.exit(f"{exe} exited with {run.returncode}:\n{run.stderr}")
        path = os.path.join(GOLDEN_DIR, bench + ".csv")
        old = open(path).read() if os.path.exists(path) else ""
        if old == run.stdout:
            print(f"{bench}: unchanged")
            continue
        changed += 1
        with open(path, "w") as f:
            f.write(run.stdout)
        print(f"{bench}: rewritten (--scale={scale})")
        sys.stdout.writelines(difflib.unified_diff(
            old.splitlines(keepends=True), run.stdout.splitlines(keepends=True),
            fromfile=f"a/tests/golden/{bench}.csv",
            tofile=f"b/tests/golden/{bench}.csv"))
    print(f"{changed} golden file(s) rewritten")


if __name__ == "__main__":
    main()
