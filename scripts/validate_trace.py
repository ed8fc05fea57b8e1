#!/usr/bin/env python3
"""Schema-checks §15 path-span Chrome traces and flight-recorder dumps.

validate_telemetry.py proves an export triple is *parseable*; this checker
proves the tracing-specific content is *well-formed*: every span slice sits
on a named track, durations are non-negative, flow arrows pair up, drop
instants carry a cause, and flight dumps are time-ordered black boxes. CI's
export-smoke job runs an experiment with tracing on and feeds the resulting
.trace.json (and any flight_*.json dumps) through here, so a refactor that
breaks what Perfetto would render fails before it ships.

Usage: validate_trace.py DIR_OR_FILE [DIR_OR_FILE...] [--require-spans]

Directories are globbed for *.trace.json and flight_*.json. With
--require-spans, at least one path-span slice must exist across all trace
files (the smoke run uses it so "tracing silently off" cannot pass).
Exits non-zero with a per-file message on the first malformed input.
"""
import json
import pathlib
import sys

# Span slices emitted by write_chrome_trace for sampled frames (§15); the
# audit trail emits no duration slices, so these are the only X events.
SPAN_SLICES = {"dispatch", "queue_wait", "service", "tx_drain"}
# TraceHop names as serialized into flight-dump records.
HOPS = {"rx_ingress", "dispatch", "vri_start", "vri_end", "tx_drain", "drop"}
# FlightDumpCause names as serialized into the dump "reason" field.
DUMP_REASONS = {"vri_crash", "quarantine", "admission", "manual", "unknown"}


def fail(msg):
    print(f"validate_trace: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def is_num(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def check_trace(path):
    """Returns the number of §15 path-span slices found in the file."""
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        fail(f"{path}: not valid JSON: {e}")
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        fail(f"{path}: missing traceEvents array")

    named_tids = set()     # tids with thread_name metadata
    span_tids = set()      # tids used by §15 span slices
    flow_starts = {}       # id -> count of ph:"s"
    flow_ends = {}         # id -> count of ph:"f"
    spans = 0
    for ev in events:
        ph, name = ev.get("ph"), ev.get("name")
        if not isinstance(ph, str) or not isinstance(name, str) or not name:
            fail(f"{path}: event without ph/name: {ev!r}")
        if ph == "M":
            if name == "thread_name":
                named_tids.add(ev.get("tid"))
            continue
        if not is_num(ev.get("ts")):
            fail(f"{path}: non-metadata event without numeric ts: {ev!r}")
        if ev["ts"] < 0:
            fail(f"{path}: negative ts: {ev!r}")
        if ph == "X":
            if not is_num(ev.get("dur")) or ev["dur"] < 0:
                fail(f"{path}: X event without numeric dur>=0: {ev!r}")
            if name in SPAN_SLICES:
                spans += 1
                span_tids.add(ev.get("tid"))
                if not is_num(ev.get("args", {}).get("frame")):
                    fail(f"{path}: span slice without args.frame: {ev!r}")
            else:
                fail(f"{path}: unknown X slice name {name!r}")
        elif ph in ("s", "f"):
            if name != "frame_path":
                fail(f"{path}: flow event with name {name!r}: {ev!r}")
            if not is_num(ev.get("id")):
                fail(f"{path}: flow event without numeric id: {ev!r}")
            (flow_starts if ph == "s" else flow_ends).setdefault(
                ev["id"], 0)
            if ph == "s":
                flow_starts[ev["id"]] += 1
            else:
                flow_ends[ev["id"]] += 1
        elif ph == "i":
            if name == "frame_drop":
                args = ev.get("args", {})
                if not is_num(args.get("frame")) or not is_num(
                        args.get("cause")):
                    fail(f"{path}: frame_drop without frame/cause: {ev!r}")
                span_tids.add(ev.get("tid"))
        elif ph not in ("C",):
            fail(f"{path}: unknown event phase {ph!r}: {ev!r}")

    for tid in sorted(t for t in span_tids if t not in named_tids):
        fail(f"{path}: span track tid {tid} has no thread_name metadata")
    for fid, n in sorted(flow_starts.items()):
        if flow_ends.get(fid, 0) != n:
            fail(f"{path}: flow id {fid} has {n} starts but "
                 f"{flow_ends.get(fid, 0)} finishes")
    for fid in sorted(set(flow_ends) - set(flow_starts)):
        fail(f"{path}: flow id {fid} finishes without a start")
    print(f"validate_trace: OK {path} "
          f"({spans} span slices, {len(flow_starts)} flow arrows)")
    return spans


def check_flight_dump(path):
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        fail(f"{path}: not valid JSON: {e}")
    for field in ("reason", "t_us", "seq", "shard", "vr", "vri",
                  "records_total", "records"):
        if field not in doc:
            fail(f"{path}: missing field {field!r}")
    if doc["reason"] not in DUMP_REASONS:
        fail(f"{path}: unknown dump reason {doc['reason']!r}")
    records = doc["records"]
    if not isinstance(records, list):
        fail(f"{path}: records is not an array")
    if doc["records_total"] < len(records):
        fail(f"{path}: records_total {doc['records_total']} < "
             f"retained {len(records)}")
    last_t = None
    for i, r in enumerate(records):
        for field in ("frame", "t_us", "hop", "vr", "vri", "shard",
                      "aux", "sampled"):
            if field not in r:
                fail(f"{path}: record {i} missing {field!r}")
        if r["hop"] not in HOPS:
            fail(f"{path}: record {i} has unknown hop {r['hop']!r}")
        if not is_num(r["t_us"]) or r["t_us"] > doc["t_us"]:
            fail(f"{path}: record {i} timestamped after the dump itself")
        if last_t is not None and r["t_us"] < last_t:
            fail(f"{path}: records not time-ordered at index {i}")
        last_t = r["t_us"]
    print(f"validate_trace: OK {path} "
          f"({len(records)} records, reason={doc['reason']})")


def main(argv):
    require_spans = False
    args = []
    for a in argv[1:]:
        if a == "--require-spans":
            require_spans = True
        else:
            args.append(a)
    if not args:
        fail("usage: validate_trace.py DIR_OR_FILE [DIR_OR_FILE...] "
             "[--require-spans]")
    traces, dumps = [], []
    for a in args:
        p = pathlib.Path(a)
        if p.is_dir():
            traces += sorted(p.glob("*.trace.json"))
            dumps += sorted(p.glob("flight_*.json"))
        elif p.name.startswith("flight_"):
            dumps.append(p)
        else:
            traces.append(p)
    if not traces and not dumps:
        fail(f"no *.trace.json or flight_*.json found under {args}")
    total_spans = 0
    for path in traces:
        if not path.exists():
            fail(f"{path}: not found")
        total_spans += check_trace(path)
    for path in dumps:
        check_flight_dump(path)
    if require_spans and total_spans == 0:
        fail("no path-span slices found across any trace "
             "(--require-spans: is tracing actually enabled?)")


if __name__ == "__main__":
    main(sys.argv)
