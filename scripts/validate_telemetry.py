#!/usr/bin/env python3
"""Validates a telemetry export triple (<prefix>.prom/.csv/.trace.json).

Used by CI's export-smoke job: after an experiment runs with
--telemetry-dir, every export prefix found in the directory must hold a
parseable Prometheus text file with the core LVRM families, an RFC-4180 CSV
series, and a Chrome trace_event JSON that a trace viewer (Perfetto,
chrome://tracing) would accept.

Usage: validate_telemetry.py DIR [DIR...] [--check-doc METRICS.md]
Exits non-zero with a per-file message on the first malformed export.

With --check-doc, every metric family found in the .prom exports and every
audit-event name found in the .trace.json exports must appear (backticked)
in the given reference doc, and in the other direction every name in the
first column of the doc's `family` and `name` tables must appear inside a
string literal somewhere under src/ (`<N>` in a name matches a printf
conversion such as `%d`) — docs/METRICS.md stays honest by construction:
adding a metric or audit kind without documenting it, or deleting one and
leaving its row behind, fails CI.
"""
import csv
import json
import pathlib
import re
import sys

REQUIRED_FAMILIES = [
    "lvrm_rx_frames_total",
    "lvrm_tx_frames_total",
    "lvrm_e2e_latency_ns",
]

# name{labels} value   |   name value
PROM_SAMPLE = re.compile(
    r"^[A-Za-z_:][A-Za-z0-9_:]*(\{[^}]*\})? [-+0-9eE.infa]+$")
PROM_META = re.compile(r"^# (TYPE|HELP) [A-Za-z_:][A-Za-z0-9_:]*( .*)?$")


def fail(msg):
    print(f"validate_telemetry: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_prom(path):
    text = path.read_text()
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("#"):
            if not PROM_META.match(line):
                fail(f"{path}: bad comment line: {line!r}")
        elif not PROM_SAMPLE.match(line):
            fail(f"{path}: unparseable sample line: {line!r}")
    for family in REQUIRED_FAMILIES:
        if family not in text:
            fail(f"{path}: missing required family {family}")
    # Histogram buckets must be cumulative: monotone counts, +Inf == _count.
    for family in ["lvrm_e2e_latency_ns"]:
        counts = [
            float(m.group(2))
            for m in re.finditer(
                rf'^{family}_bucket{{le="([^"]+)"}} ([0-9.eE+]+)$',
                text, re.M)
        ]
        if not counts:
            fail(f"{path}: {family} has no bucket series")
        if counts != sorted(counts):
            fail(f"{path}: {family} buckets are not cumulative")
        total = re.search(rf"^{family}_count ([0-9.eE+]+)$", text, re.M)
        if not total or float(total.group(1)) != counts[-1]:
            fail(f"{path}: {family} +Inf bucket disagrees with _count")


def check_csv(path):
    with path.open(newline="") as f:
        rows = list(csv.reader(f))
    if not rows or rows[0] != ["t_sec", "metric", "labels", "value"]:
        fail(f"{path}: bad header {rows[:1]!r}")
    if len(rows) < 2:
        fail(f"{path}: no data rows")
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != 4:
            fail(f"{path}:{i}: expected 4 fields, got {len(row)}")
        try:
            float(row[0])
            float(row[3])
        except ValueError:
            fail(f"{path}:{i}: non-numeric t_sec/value in {row!r}")


def check_trace(path):
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        fail(f"{path}: not valid JSON: {e}")
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        fail(f"{path}: missing traceEvents array")
    for ev in events:
        if "ph" not in ev or "name" not in ev:
            fail(f"{path}: event without ph/name: {ev!r}")
        if ev["ph"] != "M" and not isinstance(ev.get("ts"), (int, float)):
            fail(f"{path}: non-metadata event without numeric ts: {ev!r}")


HIST_SUFFIXES = ("_bucket", "_sum", "_count")


def prom_families(path):
    """Metric family names in a .prom file, histogram suffixes stripped."""
    families = set()
    for line in path.read_text().splitlines():
        m = re.match(r"^([A-Za-z_:][A-Za-z0-9_:]*)(\{| )", line)
        if not m:
            continue
        name = m.group(1)
        for suffix in HIST_SUFFIXES:
            if name.endswith(suffix):
                name = name[: -len(suffix)]
                break
        families.add(name)
    return families


def trace_names(path):
    """Audit-event names in a .trace.json, VR ids normalized to <N>."""
    names = set()
    for ev in json.loads(path.read_text()).get("traceEvents", []):
        names.add(re.sub(r"^vr\d+ ", "vr<N> ", ev.get("name", "")))
    return names


SRC_ROOT = pathlib.Path(__file__).resolve().parent.parent / "src"
STRING_LITERAL = re.compile(r'"((?:[^"\\\n]|\\.)*)"')


def table_names(text):
    """Backticked names in the first column of the doc's `family` / `name`
    tables (the metric, audit-event and path-span references)."""
    names = set()
    header = None
    for line in text.splitlines():
        if not line.startswith("|"):
            header = None
            continue
        first = line.strip("|").split("|")[0].strip()
        if header is None:
            header = first
        elif header in ("family", "name") and set(first) - set("-: "):
            names.update(re.findall(r"`([^`]+)`", first))
    return names


def src_literals(root):
    """The contents of every string literal under `root`, one per line,
    with escaped quotes undone (the trace writer spells JSON in C strings)."""
    literals = []
    for path in sorted(root.rglob("*")):
        if path.suffix in (".cpp", ".hpp"):
            literals += [m.group(1).replace('\\"', '"')
                         for m in STRING_LITERAL.finditer(path.read_text())]
    return "\n".join(literals)


def check_doc_names_in_src(doc):
    """Every documented family / audit name must still exist in src/."""
    literals = src_literals(SRC_ROOT)
    stale = []
    for name in sorted(table_names(doc.read_text())):
        pattern = re.escape(name).replace(re.escape("<N>"), r"%\w+")
        if not re.search(rf"(?<!\w){pattern}(?!\w)", literals):
            stale.append(name)
    for name in stale:
        print(f"validate_telemetry: {doc}: {name!r} is documented but "
              f"appears in no string literal under {SRC_ROOT}",
              file=sys.stderr)
    if stale:
        fail(f"{doc}: {len(stale)} documented name(s) no longer exist")


def check_doc(doc_path, prefixes):
    """Every exported family / audit name must be documented (backticked),
    and every documented one must still exist in the source."""
    doc = pathlib.Path(doc_path)
    if not doc.exists():
        fail(f"{doc}: reference doc not found")
    documented = set(re.findall(r"`([^`]+)`", doc.read_text()))
    for prefix in prefixes:
        prom = prefix.parent / (prefix.name + ".prom")
        for family in sorted(prom_families(prom)):
            if family not in documented:
                fail(f"{prom}: family {family} is exported but not "
                     f"documented in {doc}")
        trace = prefix.parent / (prefix.name + ".trace.json")
        for name in sorted(trace_names(trace)):
            if name and name not in documented:
                fail(f"{trace}: audit event {name!r} is exported but not "
                     f"documented in {doc}")
    check_doc_names_in_src(doc)
    print(f"validate_telemetry: OK doc cross-check against {doc}")


def main(argv):
    doc = None
    args = []
    it = iter(argv[1:])
    for a in it:
        if a == "--check-doc":
            doc = next(it, None)
            if doc is None:
                fail("--check-doc requires a path")
        elif a.startswith("--check-doc="):
            doc = a.split("=", 1)[1]
        else:
            args.append(a)
    if not args:
        fail("usage: validate_telemetry.py DIR [DIR...] "
             "[--check-doc METRICS.md]")
    prefixes = []
    for d in args:
        prefixes += [p.with_suffix("") for p in pathlib.Path(d).glob("*.prom")]
    if not prefixes:
        fail(f"no .prom exports found under {args}")
    for prefix in prefixes:
        for suffix, check in ((".prom", check_prom), (".csv", check_csv),
                              (".trace.json", check_trace)):
            path = prefix.parent / (prefix.name + suffix)
            if not path.exists():
                fail(f"{path}: missing (incomplete export triple)")
            check(path)
        print(f"validate_telemetry: OK {prefix}.{{prom,csv,trace.json}}")
    if doc is not None:
        check_doc(doc, prefixes)


if __name__ == "__main__":
    main(sys.argv)
