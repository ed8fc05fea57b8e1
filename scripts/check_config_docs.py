#!/usr/bin/env python3
"""Keeps README.md's `LvrmConfig` reference table complete and current, and
every `LvrmConfig` field a knob something actually turns.

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

It also runs a census of the settable values: every scalar field, with the
nested configs (the obs:: ones included) expanded into their own fields.

* Unassigned: a settable value that no experiment, bench, example or test
  ever sets — its default is the only value the code has ever run with, so
  it belongs in a named constant at its reader, not in the config. A value
  counts as set when `.<leaf> =` (a member assignment or a designated
  initializer) appears outside comments anywhere under ASSIGNMENT_DIRS. The
  match is by leaf name, so a nested field whose leaf another struct shares
  (`health.enabled` vs `tracing.enabled`) passes when either is set.
  ALLOWED_UNASSIGNED lists the deliberate exceptions.
* Default-only: a settable value whose every assignment under
  ASSIGNMENT_DIRS is, as text with whitespace removed, its declared
  default (`cfg.fail_slow_grace = 3;` for `int fail_slow_grace = 3;`).
  Setting a value to its default turns nothing, so such a value is as
  unused as an unassigned one.

Usage: check_config_docs.py [ROOT]
Prints every undocumented, stale or unassigned field and exits non-zero if
any were found.
"""
import pathlib
import re
import sys

# Trees searched for assignments: the code that configures an LvrmSystem.
ASSIGNMENT_DIRS = ("src/exp", "bench", "examples", "e2ebench/src", "tests")
SOURCE_SUFFIXES = {".cpp", ".hpp", ".cc", ".h"}
# Settable values that may stay unassigned, each with why it is a knob.
ALLOWED_UNASSIGNED = {
    "lvrm_core": "deployment pinning: the core the LVRM process runs on is a "
                 "property of the host, not of any experiment",
    "realloc_period": "the paper names the re-allocation period tunable "
                      "(Sec 3.2)",
}

STRUCT = re.compile(r"^struct\s+(\w+)\s*\{", re.MULTILINE)
COMMENT = re.compile(r"//[^\n]*|/\*.*?\*/", re.DOTALL)
# "type name = default;" or "type name;" at one level of struct nesting.
# Types may be qualified / templated (std::uint64_t, obs::TracingConfig,
# std::vector<net::Prefix>); methods and using-decls don't match.
FIELD = re.compile(
    r"^\s{2}(?:static\s+)?(?:constexpr\s+)?"
    r"(?P<type>[\w:]+(?:<[^;=(){}]*>)?)\s+"
    r"(?P<name>\w+)\s*(?:=\s*(?P<default>[^;]+))?;",
    re.MULTILINE,
)
ASSIGNMENT = re.compile(r"\.\s*(\w+)\s*=(?!=)")


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


def squeeze(text):
    return re.sub(r"\s+", "", text)


def defaults_of(body):
    """Field name -> its declared default, whitespace removed (None if none)."""
    return {m.group("name"): m.group("default") and squeeze(m.group("default"))
            for m in FIELD.finditer(body)}


def settable_values(root, bodies):
    """(dotted name, declared default) of every scalar LvrmConfig value,
    nested configs expanded; the default is None when none is declared."""
    external = {}
    for hdr in sorted((root / "src" / "obs").glob("*.hpp")):
        external.update(struct_bodies(hdr.read_text(encoding="utf-8")))
    values = []
    top = defaults_of(bodies["LvrmConfig"])
    for ftype, name in fields_of(bodies["LvrmConfig"]):
        base = ftype.rsplit("::", 1)[-1]
        nested = bodies.get(base) or (
            external.get(base) if ftype.startswith("obs::") else None)
        if nested is None:
            values.append((name, top[name]))
        else:
            values.extend((f"{name}.{sub}", default)
                          for sub, default in defaults_of(nested).items())
    return values


def known_fields(root, bodies):
    """Every name a first-column cell may use: top-level and dotted nested."""
    return {v for v, _ in settable_values(root, bodies)} | {
        name for _, name in fields_of(bodies["LvrmConfig"])}


def assigned_text(code, start):
    """The right-hand side starting at `start`, up to the `;`, `,`, `)` or
    `}` that ends it outside any bracket, whitespace removed."""
    depth, i = 0, start
    while i < len(code):
        ch = code[i]
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            if depth == 0:
                break
            depth -= 1
        elif ch in ";," and depth == 0:
            break
        i += 1
    return squeeze(code[start:i])


def assignments(root):
    """Leaf -> right-hand sides of every `.<leaf> = ...` outside comments
    under ASSIGNMENT_DIRS, whitespace removed."""
    found = {}
    for d in ASSIGNMENT_DIRS:
        for path in sorted((root / d).rglob("*")):
            if path.suffix not in SOURCE_SUFFIXES or not path.is_file():
                continue
            code = COMMENT.sub("", path.read_text(encoding="utf-8"))
            for m in ASSIGNMENT.finditer(code):
                found.setdefault(m.group(1), set()).add(
                    assigned_text(code, m.end()))
    return found


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

    values = settable_values(root, bodies)
    assigned = assignments(root)
    unassigned, default_only = [], []
    for name, default in values:
        if name in ALLOWED_UNASSIGNED:
            continue
        rhs = assigned.get(name.rsplit(".", 1)[-1])
        if rhs is None:
            unassigned.append(name)
        elif default is not None and rhs == {default}:
            default_only.append(name)

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
    if unassigned:
        print(f"{header}: {len(unassigned)} LvrmConfig values are set nowhere "
              f"in {', '.join(ASSIGNMENT_DIRS)} (make each a named constant "
              f"at its reader, or allowlist it with a reason):")
        for name in unassigned:
            print(f"  {name}")
    if default_only:
        print(f"{header}: {len(default_only)} LvrmConfig values are only ever "
              f"set to their declared default in {', '.join(ASSIGNMENT_DIRS)} "
              f"(make each a named constant at its reader):")
        for name in default_only:
            print(f"  {name}")
    if missing or stale or unassigned or default_only:
        return 1
    print(f"check_config_docs: every LvrmConfig field of {header.name} is "
          f"documented in {readme.name}, every row names a field, and each "
          f"of the {len(values)} settable values is set to a value other "
          f"than its default somewhere or allowlisted")
    return 0


if __name__ == "__main__":
    sys.exit(main())
