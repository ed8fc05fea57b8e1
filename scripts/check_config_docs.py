#!/usr/bin/env python3
"""Keeps README.md's `LvrmConfig` reference table complete and current.

Parses `src/lvrm/config.hpp` for every field of `LvrmConfig` — recursing
into the nested config structs defined in the same header (HealthConfig,
OverloadConfig, StateReplicationConfig, ...) — and checks README.md's
configuration-reference table in both directions:

* Missing: a field with no backticked mention in the README. A nested
  field `overload_control.sample_watermark` is satisfied by either the
  dotted form or the bare field name (the table groups related knobs into
  one row, e.g. "`overload_control.escalate_pressure` / `relax_pressure`").
  Struct-typed fields whose definition lives in another header (the obs::
  configs) are satisfied by any documented `member.*` knob.
* Stale: a backticked name in the table's first column that is not a
  field or nested field of `LvrmConfig`. A bare name after a dotted one in
  the same cell inherits its prefix (`relax_pressure` above is checked as
  `overload_control.relax_pressure`). Nested fields of the obs:: configs
  are resolved against the structs in `src/obs/*.hpp`.

Usage: check_config_docs.py [ROOT]
Prints every undocumented or stale field and exits non-zero if any were
found.
"""
import pathlib
import re
import sys

STRUCT = re.compile(r"^struct\s+(\w+)\s*\{", re.MULTILINE)
# "type name = default;" or "type name;" at one level of struct nesting.
# Types may be qualified / templated (std::uint64_t, obs::TracingConfig,
# std::vector<net::Prefix>); methods and using-decls don't match.
FIELD = re.compile(
    r"^\s{2}(?:static\s+)?(?:constexpr\s+)?"
    r"(?P<type>[\w:]+(?:<[^;=(){}]*>)?)\s+"
    r"(?P<name>\w+)\s*(?:=\s*[^;]+)?;",
    re.MULTILINE,
)


def struct_bodies(text):
    """Map struct name -> body text (brace-matched, tolerates nesting)."""
    bodies = {}
    for m in STRUCT.finditer(text):
        depth, i = 1, m.end()
        while i < len(text) and depth:
            depth += {"{": 1, "}": -1}.get(text[i], 0)
            i += 1
        bodies[m.group(1)] = text[m.end():i - 1]
    return bodies


def fields_of(body):
    return [(m.group("type"), m.group("name")) for m in FIELD.finditer(body)]


def known_fields(root, bodies):
    """Every name a first-column cell may use: top-level and dotted nested."""
    external = {}
    for hdr in sorted((root / "src" / "obs").glob("*.hpp")):
        external.update(struct_bodies(hdr.read_text(encoding="utf-8")))
    known = set()
    for ftype, name in fields_of(bodies["LvrmConfig"]):
        known.add(name)
        base = ftype.rsplit("::", 1)[-1]
        nested = bodies.get(base) or (
            external.get(base) if ftype.startswith("obs::") else None)
        if nested is not None:
            known.update(f"{name}.{sub}" for _, sub in fields_of(nested))
    return known


def table_first_cells(readme_text):
    """First-column cells of the first table under the `LvrmConfig` heading."""
    cells = []
    in_section = False
    for line in readme_text.splitlines():
        if line.startswith("#"):
            if cells:
                break
            in_section = "LvrmConfig" in line
        elif in_section and line.startswith("|"):
            cells.append(line.split("|")[1])
        elif cells:
            break  # the table ended
    return cells


def stale_rows(cells, known):
    stale = []
    for cell in cells:
        prefix = ""
        for name in re.findall(r"`([^`]+)`", cell):
            if "." in name:
                prefix = name.rsplit(".", 1)[0] + "."
                full = name
            else:
                full = prefix + name
            if full not in known:
                stale.append(full)
    return stale


def main():
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".")
    header = root / "src" / "lvrm" / "config.hpp"
    readme = root / "README.md"
    bodies = struct_bodies(header.read_text(encoding="utf-8"))
    if "LvrmConfig" not in bodies:
        print(f"error: no LvrmConfig struct found in {header}")
        return 1
    # Strip fenced code blocks first: a ``` fence is itself a backtick run,
    # and pairing backticks across fences would swallow the inline code
    # spans between them.
    prose = re.sub(r"^```.*?^```$", "", readme.read_text(encoding="utf-8"),
                   flags=re.MULTILINE | re.DOTALL)
    documented = set(re.findall(r"`([^`]+)`", prose))

    missing = []
    for ftype, name in fields_of(bodies["LvrmConfig"]):
        base = ftype.rsplit("::", 1)[-1]
        if base in bodies:  # nested config struct defined in this header
            for _, sub in fields_of(bodies[base]):
                if f"{name}.{sub}" not in documented and sub not in documented:
                    missing.append(f"{name}.{sub}")
        elif ftype.startswith("obs::"):  # documented knob-by-knob elsewhere
            if not any(d.startswith(f"{name}.") for d in documented):
                missing.append(f"{name}.*")
        elif name not in documented:
            missing.append(name)

    stale = stale_rows(table_first_cells(readme.read_text(encoding="utf-8")),
                       known_fields(root, bodies))

    if missing:
        print(f"{readme}: LvrmConfig fields missing from the configuration "
              f"reference table (add a backticked row per field):")
        for name in missing:
            print(f"  {name}")
    if stale:
        print(f"{readme}: configuration reference rows naming no LvrmConfig "
              f"field (remove or rename them):")
        for name in stale:
            print(f"  {name}")
    if missing or stale:
        return 1
    print(f"check_config_docs: every LvrmConfig field of {header.name} is "
          f"documented in {readme.name}, and every row names a field")
    return 0


if __name__ == "__main__":
    sys.exit(main())
