#!/usr/bin/env python3
"""Mutation gate: every test the list names still bites.

Reads ``ci/mutants.txt`` (its format is described at the top of that
file). Each entry is one mutant: a file, an exact snippet that occurs
once in it, the snippet's replacement, the test command that must fail
on the mutated tree, and the expected outcome, ``killed`` or
``survives`` (an equivalent mutant, with the reason it cannot be
killed).

The tree is copied once into a temporary directory with its own
``target/``, so the checkout and its build are never touched. Every
distinct test command first runs on the unmutated copy and must pass.
Then each mutant is applied alone: its test command is built with
``--no-run`` (a mutant that does not compile is a broken entry, not a
kill), run under a timeout, and the file is restored.

Exits 0 when every ``killed`` entry was killed and every ``survives``
entry survived; prints one row per mutant (outcome and the failing
tests) and the gate's wall time.

Usage: mutants.py [repo-root]
"""

import os
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
import time

# One mutant's build or test run, in seconds: ten times the slowest
# entry's on a two-core host.
TIMEOUT = 900

# Not copied: build output and history.
IGNORE = shutil.ignore_patterns("target", ".git", ".bench_build")


class Entry:
    def __init__(self, name, line):
        self.name = name
        self.line = line
        self.fields = {}
        self.find = None
        self.replace = None

    def field(self, key):
        return self.fields.get(key, "")


def parse(path):
    """The list's entries, in order. A malformed entry is a fatal error."""
    entries = []
    cur = None
    block = None  # the lines of the snippet being read
    with open(path, encoding="utf-8") as f:
        lines = f.read().split("\n")
    for n, line in enumerate(lines, 1):
        if block is not None:
            if line in ("====", ">>>>"):
                text = "\n".join(block)
                if cur.find is None:
                    cur.find = text
                else:
                    cur.replace = text
                block = [] if line == "====" else None
                continue
            block.append(line)
            continue
        if not line.strip() or line.startswith("#"):
            continue
        if line.startswith("== "):
            cur = Entry(line[3:].strip(), n)
            entries.append(cur)
        elif line == "<<<<":
            block = []
        elif cur is not None and ":" in line:
            key, value = line.split(":", 1)
            cur.fields[key.strip()] = value.strip()
        else:
            sys.exit(f"{path}:{n}: unexpected line {line!r}")
    if block is not None:
        sys.exit(f"{path}: unterminated snippet in `{cur.name}`")
    for e in entries:
        where = f"{path}:{e.line} `{e.name}`"
        if e.find is None or e.replace is None:
            sys.exit(f"{where}: needs a <<<< find ==== replace >>>> block")
        if e.find == e.replace:
            sys.exit(f"{where}: the replacement equals the snippet")
        if e.field("expect") not in ("killed", "survives"):
            sys.exit(f"{where}: expect must be `killed` or `survives`")
        if e.field("expect") == "survives" and not e.field("reason"):
            sys.exit(f"{where}: a surviving mutant carries its reason")
        if not e.field("test").startswith("cargo test"):
            sys.exit(f"{where}: test must be a `cargo test` command")
        if not e.field("file"):
            sys.exit(f"{where}: needs a file")
    return entries


def no_run(cmd):
    """`cmd` with `--no-run` before any `--` separator: build only."""
    args = shlex.split(cmd)
    at = args.index("--") if "--" in args else len(args)
    return args[:at] + ["--no-run"] + args[at:]


def run(args, cwd, env):
    """(exit code or None on timeout, combined output)."""
    try:
        p = subprocess.run(
            args,
            cwd=cwd,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            timeout=TIMEOUT,
        )
        return p.returncode, p.stdout
    except subprocess.TimeoutExpired as e:
        out = e.stdout or ""
        return None, out if isinstance(out, str) else out.decode(errors="replace")


def failing_tests(output):
    """The tests a run reports failed, or its first error line."""
    names = re.findall(r"^---- (\S+) stdout ----$", output, re.M)
    if names:
        return ", ".join(dict.fromkeys(names))
    for line in output.splitlines():
        if line.startswith("error"):
            return line.strip()
    return ""


def main():
    root = os.path.abspath(sys.argv[1] if len(sys.argv) > 1 else ".")
    entries = parse(os.path.join(root, "ci", "mutants.txt"))
    originals = {}
    for e in entries:
        path = os.path.join(root, e.field("file"))
        if e.field("file") not in originals:
            with open(path, encoding="utf-8") as f:
                originals[e.field("file")] = f.read()
        count = originals[e.field("file")].count(e.find)
        if count != 1:
            sys.exit(f"`{e.name}`: the snippet occurs {count} times in {e.field('file')}")

    t0 = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tree = os.path.join(tmp, "tree")
        shutil.copytree(root, tree, ignore=IGNORE)
        env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(tmp, "target"), CARGO_NET_OFFLINE="true")

        for cmd in dict.fromkeys(e.field("test") for e in entries):
            code, out = run(shlex.split(cmd), tree, env)
            if code != 0:
                print(out[-4000:])
                sys.exit(f"the unmutated tree fails `{cmd}`: no mutant can be judged")
            print(f"baseline ok  {cmd}", flush=True)

        rows = []
        for i, e in enumerate(entries, 1):
            path = os.path.join(tree, e.field("file"))
            original = originals[e.field("file")]
            with open(path, "w", encoding="utf-8") as f:
                f.write(original.replace(e.find, e.replace))
            try:
                code, out = run(no_run(e.field("test")), tree, env)
                if code != 0:
                    outcome, detail = "unviable", failing_tests(out) or "does not build"
                else:
                    code, out = run(shlex.split(e.field("test")), tree, env)
                    if code is None:
                        outcome, detail = "timeout", f"over {TIMEOUT} s"
                    elif code == 0:
                        outcome, detail = "survives", e.field("reason")
                    else:
                        outcome, detail = "killed", failing_tests(out)
            finally:
                with open(path, "w", encoding="utf-8") as f:
                    f.write(original)
            ok = outcome == e.field("expect")
            rows.append((e, outcome, detail, ok))
            mark = "ok " if ok else "BAD"
            print(f"[{i:2}/{len(entries)}] {mark} {outcome:8} {e.name}  ({detail})", flush=True)

    minutes = (time.monotonic() - t0) / 60
    print()
    print("| mutant | file | expected | outcome | failing tests / reason |")
    print("|---|---|---|---|---|")
    for e, outcome, detail, _ in rows:
        print(f"| {e.name} | `{e.field('file')}` | {e.field('expect')} | {outcome} | {detail} |")
    bad = [e.name for e, _, _, ok in rows if not ok]
    print()
    print(f"{len(rows)} mutants, {len(rows) - len(bad)} as expected, {minutes:.1f} min")
    if bad:
        print("not as expected: " + "; ".join(bad))
        sys.exit(1)


if __name__ == "__main__":
    main()
