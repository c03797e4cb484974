#!/usr/bin/env python3
"""Counts the workspace's production lines: every line of Rust under
crates/*/src and src that is not blank, not a comment (`//`, `///`, `//!`,
or inside `/* ... */`) and not inside a `#[cfg(test)]` module. Prints one
figure per crate, then the total.

    python3 scripts/prod_lines.py            # from the repository root
    python3 scripts/prod_lines.py --root DIR # another checkout

A `#[cfg(test)]` attribute followed by `mod name {` skips everything up to
the matching closing brace (braces inside string and character literals and
comments are not counted); `#[cfg(test)] mod name;` skips that line.
"""

import argparse
import pathlib
import re
import sys

TEST_MOD = re.compile(r"^\s*(pub(\([^)]*\))?\s+)?mod\s+\w+\s*(\{|;)")


def strip_code(line, state):
    """The line's code with comments removed and each string or character
    literal reduced to its opening quote, and the lexer state at its end:
    `None`,
    `"block"` (inside `/* ... */`), `"str"` (inside `"..."`) or the closing
    delimiter of a raw string (`"#` for `r#"..."#`)."""
    code = []
    i = 0
    while i < len(line):
        if state == "block":
            end = line.find("*/", i)
            if end < 0:
                return "".join(code), state
            state = None
            i = end + 2
        elif state == "str":
            c = line[i]
            if c == "\\":
                i += 2
            else:
                i += 1
                if c == '"':
                    state = None
        elif state is not None:
            end = line.find(state, i)
            if end < 0:
                return "".join(code), state
            i = end + len(state)
            state = None
        elif line.startswith("//", i):
            break
        elif line.startswith("/*", i):
            state = "block"
            i += 2
        else:
            raw = re.match(r'b?r(#*)"', line[i:])
            literal = re.match(r"b?'(\\.|[^\\'])'", line[i:])
            if raw and (i == 0 or not (line[i - 1].isalnum() or line[i - 1] == "_")):
                code.append('"')
                state = '"' + raw.group(1)
                i += raw.end()
            elif line[i] == '"':
                code.append('"')
                state = "str"
                i += 1
            elif literal:
                # A character literal such as '{'; lifetimes ('a) fall
                # through as code.
                code.append("'")
                i += literal.end()
            else:
                code.append(line[i])
                i += 1
    return "".join(code), state


def count_file(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    total = 0
    state = None
    pending_cfg_test = False
    skip_depth = None
    for line in lines:
        in_literal = state == "str" or (state is not None and state != "block")
        code, state = strip_code(line, state)
        if skip_depth is not None:
            skip_depth += code.count("{") - code.count("}")
            if skip_depth <= 0:
                skip_depth = None
            continue
        stripped = code.strip()
        if not stripped and not in_literal:
            continue
        if stripped == "#[cfg(test)]":
            pending_cfg_test = True
            continue
        if pending_cfg_test:
            pending_cfg_test = False
            module = TEST_MOD.match(stripped)
            if module:
                if module.group(3) == "{":
                    depth = code.count("{") - code.count("}")
                    skip_depth = depth if depth > 0 else None
                continue
            # `#[cfg(test)]` on something other than a module: count both.
            total += 1
        total += 1
    return total


def crate_of(path, root):
    parts = path.relative_to(root).parts
    return parts[1] if parts[0] == "crates" else "(root)"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", default=".", help="repository root")
    args = parser.parse_args()
    root = pathlib.Path(args.root).resolve()
    files = sorted(root.glob("crates/*/src/**/*.rs")) + sorted(root.glob("src/**/*.rs"))
    if not files:
        sys.exit(f"no Rust sources under {root}/crates/*/src or {root}/src")
    per_crate = {}
    for path in files:
        crate = crate_of(path, root)
        per_crate[crate] = per_crate.get(crate, 0) + count_file(path)
    width = max(len(name) for name in per_crate)
    for crate, lines in sorted(per_crate.items()):
        print(f"{crate:<{width}}  {lines:>6}")
    print(f"{'total':<{width}}  {sum(per_crate.values()):>6}")


if __name__ == "__main__":
    main()
