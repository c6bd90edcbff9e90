#!/usr/bin/env python3
"""Resolve and summarise the stacks ci/sigprof.c recorded.

    python3 ci/sigprof.py PREFIX.<pid>.samples [--under FRAME] [--top N]

Reads the samples file and the `.maps` file beside it, maps every return
address to its object file and offset, resolves the offsets with
`addr2line -a -f -i -C` (inlined frames included when the binary carries
line tables, e.g. a build with CARGO_PROFILE_RELEASE_DEBUG=line-tables-only;
the symbol table otherwise), and prints, per function:

  * inclusive share: samples with the function anywhere on the stack;
  * self share: samples with the function as the innermost frame.

With `--under FRAME`, only samples whose stack holds a function whose
name contains FRAME are counted, and shares are of those samples. The
script exits 1 when no sample is left to report, so a CI step can check
that a hot frame is still resolvable.
"""

import argparse
import bisect
import collections
import functools
import os
import struct
import subprocess
import sys


def read_samples(path):
    """Yield each sample's return addresses, innermost first."""
    with open(path, "rb") as f:
        data = f.read()
    pos = 0
    while pos + 4 <= len(data):
        (depth,) = struct.unpack_from("<I", data, pos)
        pos += 4
        end = pos + 8 * depth
        if end > len(data):
            break  # a record cut short by the process's end
        yield struct.unpack_from("<%dQ" % depth, data, pos)
        pos = end


def read_maps(path):
    """Executable mappings as sorted (start, end, file offset, path), plus
    each file's load base (the start of its offset-0 mapping)."""
    maps, base = [], {}
    with open(path) as f:
        for line in f:
            parts = line.split(None, 5)
            if len(parts) < 6 or not parts[5].startswith("/"):
                continue
            start, end = (int(x, 16) for x in parts[0].split("-"))
            offset, obj = int(parts[2], 16), parts[5].strip()
            if offset == 0:
                base.setdefault(obj, start)
            if "x" in parts[1]:
                maps.append((start, end, offset, obj))
    maps.sort()
    return maps, base


@functools.lru_cache(maxsize=None)
def is_shared_object(path):
    """ET_DYN (PIE executables and shared libraries) is loaded at a base."""
    try:
        with open(path, "rb") as f:
            header = f.read(18)
        return struct.unpack_from("<H", header, 16)[0] == 3
    except OSError:
        return True


def resolve(obj, addrs):
    """Map each address (ELF virtual address in `obj`) to its inlined chain
    of function names, innermost first."""
    out = {a: [] for a in addrs}
    if not addrs:
        return out
    proc = subprocess.run(
        ["addr2line", "-a", "-f", "-i", "-C", "-e", obj],
        input="\n".join("%x" % a for a in addrs),
        capture_output=True,
        text=True,
        check=False,
    )
    current, lines = None, proc.stdout.splitlines()
    i = 0
    while i < len(lines):
        line = lines[i]
        if line.startswith("0x"):
            current = int(line, 16)
            i += 1
            continue
        if current is not None and current in out:
            out[current].append(line)
        i += 2  # function line, then its file:line
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("samples")
    ap.add_argument("--under", help="count only stacks holding this frame")
    ap.add_argument("--top", type=int, default=30, help="rows per table")
    args = ap.parse_args()

    maps_path = args.samples[: -len(".samples")] + ".maps"
    maps, base = read_maps(maps_path)
    starts = [m[0] for m in maps]
    samples = list(read_samples(args.samples))

    def place(depth, addr):
        """(object file, ELF address) of one frame, or None if unmapped.
        The innermost address is the interrupted instruction; the others
        are return addresses, so step back into the call instruction."""
        i = bisect.bisect_right(starts, addr) - 1
        if i < 0 or addr >= maps[i][1]:
            return None
        obj = maps[i][3]
        pc = addr if depth == 0 else addr - 1
        return obj, pc - base.get(obj, 0) if is_shared_object(obj) else pc

    wanted = collections.defaultdict(set)
    for stack in samples:
        for depth, addr in enumerate(stack):
            p = place(depth, addr)
            if p is not None:
                wanted[p[0]].add(p[1])
    # A shared library's names come from its dynamic symbols only (the
    # nearest exported one): they are tagged with the library's name.
    names = {}
    for obj, rels in wanted.items():
        short = os.path.basename(obj)
        tag = "[%s] " % short if ".so" in short else ""
        for rel, chain in resolve(obj, sorted(rels)).items():
            names[(obj, rel)] = [
                tag + n if n != "??" else "[%s+%#x]" % (short, rel) for n in chain
            ] or ["[%s+%#x]" % (short, rel)]

    def frames(stack):
        """Function names on the stack, innermost first."""
        out = []
        for depth, addr in enumerate(stack):
            out.extend(names.get(place(depth, addr), ["[unknown]"]))
        return out

    inclusive, self_count, total = collections.Counter(), collections.Counter(), 0
    for stack in samples:
        fs = frames(stack)
        if args.under and not any(args.under in f for f in fs):
            continue
        total += 1
        self_count[fs[0] if fs else "[empty]"] += 1
        for f in set(fs):
            inclusive[f] += 1

    scope = " under %s" % args.under if args.under else ""
    print("%d samples%s (of %d recorded)" % (total, scope, len(samples)))
    if total == 0:
        return 1
    for title, counter in (("inclusive", inclusive), ("self", self_count)):
        print("\n%-9s  samples  function" % title)
        for name, n in counter.most_common(args.top):
            print("%6.1f %%  %7d  %s" % (100.0 * n / total, n, name))
    return 0


if __name__ == "__main__":
    sys.exit(main())
