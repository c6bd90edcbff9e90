#!/usr/bin/env python3
"""rustfmt ratchet: formatting debt can only shrink.

Runs ``cargo fmt --all -- --check -l`` and compares the files it names
(``vendor/`` left out: offline stand-ins for published crates) with
``ci/fmt_pending.txt``, the workspace files that were not rustfmt-clean
when the ratchet was introduced. It fails when

* a file outside the list is not rustfmt-clean (format it), or
* a listed file has become clean (delete its line from the list).

So the list never grows, and the workspace is never reformatted in one go.

Usage: fmt_ratchet.py [repo-root]
"""

import os
import subprocess
import sys


def main():
    root = os.path.abspath(sys.argv[1] if len(sys.argv) > 1 else ".")
    with open(os.path.join(root, "ci", "fmt_pending.txt"), encoding="utf-8") as f:
        pending = {line.strip() for line in f if line.strip() and not line.startswith("#")}
    out = subprocess.run(
        ["cargo", "fmt", "--all", "--", "--check", "-l"],
        cwd=root,
        capture_output=True,
        text=True,
    )
    if out.returncode not in (0, 1):
        sys.stderr.write(out.stderr)
        return 2
    unclean = set()
    for line in out.stdout.splitlines():
        path = os.path.relpath(line.strip(), root)
        if not path.startswith("vendor" + os.sep):
            unclean.add(path)
    new = sorted(unclean - pending)
    cleaned = sorted(pending - unclean)
    for path in new:
        print(f"not rustfmt-clean (run `rustfmt --edition 2021 {path}`): {path}")
    for path in cleaned:
        print(f"rustfmt-clean now, delete its line from ci/fmt_pending.txt: {path}")
    print(f"{len(unclean)} file(s) not rustfmt-clean, {len(pending)} listed")
    return 1 if new or cleaned else 0


if __name__ == "__main__":
    sys.exit(main())
