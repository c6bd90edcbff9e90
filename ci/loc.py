#!/usr/bin/env python3
"""Lines of Rust code per crate (ROADMAP item 1: LOC is a tracked number).

Counts non-blank, non-comment lines of every ``*.rs`` file of the
workspace — ``crates/*`` and the root package — and prints one row per
crate:

* ``src``   code under ``src/`` outside ``#[cfg(test)]`` items;
* ``test``  ``#[cfg(test)]`` items under ``src/`` plus ``tests/``;
* ``other`` ``benches/`` and ``examples/``.

``vendor/`` (offline stand-ins for published crates), ``benchmark/``
(the trusted benchmark, frozen between benchmark PRs) and ``target/`` are
not the product and are left out. Test code under ``src/`` is every
item that follows a ``#[cfg(test)]`` / ``#[cfg(all(test, ...))]``
attribute — a ``mod``, whatever its visibility, a ``fn``, an ``impl``, a
``use`` — from the attribute up to the item's matching brace or, for an
item without a body, its ``;``.

Usage: loc.py [repo-root]
"""

import os
import re
import sys

CFG_TEST = re.compile(r"#\[cfg\((all\()?test\b")


def code_lines(path):
    """The file's code lines (comments and blanks dropped), stripped."""
    out = []
    in_block = False
    with open(path, encoding="utf-8") as f:
        for raw in f:
            line = raw.strip()
            if in_block:
                if "*/" not in line:
                    continue
                line = line.split("*/", 1)[1].strip()
                in_block = False
            if line.startswith("/*"):
                if "*/" not in line:
                    in_block = True
                    continue
                line = line.split("*/", 1)[1].strip()
            if not line or line.startswith("//"):
                continue
            out.append(line)
    return out


def item_end(lines, i):
    """The index just past the ``#[cfg(test)]`` item whose attribute is
    ``lines[i]``: its matching closing brace, or its ``;`` if it ends
    before a brace opens. Further attributes are part of the item."""
    depth = 0
    opened = False
    j = i
    while j < len(lines):
        line = lines[j].split("]", 1)[1].strip() if j == i else lines[j]
        j += 1
        if not opened and line.startswith("#["):
            continue
        depth += line.count("{") - line.count("}")
        opened = opened or "{" in line
        if (opened and depth <= 0) or (not opened and line.endswith(";")):
            break
    return j


def split_src(lines):
    """(non-test, test) counts of one ``src/`` file's code lines."""
    test = 0
    i = 0
    while i < len(lines):
        if CFG_TEST.match(lines[i]):
            j = item_end(lines, i)
            test += j - i
            i = j
        else:
            i += 1
    return len(lines) - test, test


def count_crate(root):
    src = test = other = 0
    for sub in ("src", "tests", "benches", "examples"):
        for dirpath, _, files in os.walk(os.path.join(root, sub)):
            for name in sorted(files):
                if not name.endswith(".rs"):
                    continue
                lines = code_lines(os.path.join(dirpath, name))
                if sub == "src":
                    s, t = split_src(lines)
                    src += s
                    test += t
                elif sub == "tests":
                    test += len(lines)
                else:
                    other += len(lines)
    return src, test, other


def main():
    repo = sys.argv[1] if len(sys.argv) > 1 else os.path.join(os.path.dirname(__file__), "..")
    crates_dir = os.path.join(repo, "crates")
    rows = [
        (f"crates/{name}", count_crate(os.path.join(crates_dir, name)))
        for name in sorted(os.listdir(crates_dir))
        if os.path.isdir(os.path.join(crates_dir, name))
    ]
    rows.append(("(root package)", count_crate(repo)))
    print(f"{'crate':<18}{'src':>8}{'test':>8}{'other':>8}{'total':>8}")
    totals = [0, 0, 0]
    for name, counts in rows:
        print(f"{name:<18}" + "".join(f"{c:>8}" for c in counts) + f"{sum(counts):>8}")
        totals = [a + b for a, b in zip(totals, counts)]
    print(f"{'workspace':<18}" + "".join(f"{c:>8}" for c in totals) + f"{sum(totals):>8}")


if __name__ == "__main__":
    main()
