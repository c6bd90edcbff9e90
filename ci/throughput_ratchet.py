#!/usr/bin/env python3
"""Throughput and allocation ratchet for the IVM data-plane smoke benchmark.

Compares a fresh ``BENCH_ivm.json`` smoke run against the committed smoke
baseline (``ci/bench_ivm_smoke_baseline.json``) across every scenario
(paper / scaling / wide) and both propagation modes (per_key, the test
reference, and fused, the production path), and fails if any ``txns_per_sec``
fell below a generous fraction of the baseline. The tolerance is
deliberately loose: smoke runs last milliseconds and CI hardware differs
from the machine that recorded the baseline, so this is a guard against
order-of-magnitude regressions (e.g. reintroducing per-probe allocation
or deep-clone commits on the data plane), not a precision benchmark.

``allocs_per_txn`` is only present in runs built with the counting
allocator (``--features alloc-stats``); both files may omit it. With
``--alloc-check`` the ratchet additionally requires the fresh run's
*fused* ``allocs_per_txn`` to sit strictly below the committed *per_key*
baseline in every scenario — allocation counts are workload-determined,
not hardware-determined, so this is a tight assertion that the arena and
fused kernels actually absorb hot-path allocation — and to stay within
``ALLOC_CEILING`` (5%) of the committed *fused* figure, so the production
path has a ceiling of its own and cannot drift up to the reference's.

The ``serve`` section (the multi-client sharded-scheduler benchmark) is
ratcheted the same way when both files carry it: sustained ``txns_per_sec``
at shard counts 1 and 4 must stay above the floor, and the run's
hardware-independent determinism flags (``replay_identical`` per point,
``union_matches_unsharded``) must all be true. Baselines predating the
serve benchmark are skipped rather than forcing a flag-day refresh. On a
host with two or more CPUs the fresh run's own 2-shard ``shard_speedup``
(its ``txns_per_sec`` over the same run's 1-shard point, median of
interleaved passes) must stay above ``SERVE_SPEEDUP_FLOOR``: the wave
scan this guards against sat at 0.47 on the smoke workload, the per-shard
sequencer sits at 0.73-0.94 (cross-shard transactions are a sixth of that
queue but most of its time, and they run alone), so the floor separates
the two without tripping on a 6 ms run's noise. Every point's speedup is
printed, with a note where it is still below the 1-shard point.

The ``wal`` section (present when the bench was built with the
``durability`` feature, the bench crate's default) is checked against an
*intra-run* floor rather than the committed baseline: WAL-on throughput
must stay within 25% of the same run's in-memory pass
(``throughput_ratio >= 0.75``), recovery must have been bit-identical,
and checkpointed recovery must never replay more than full-log recovery.
Being a same-host same-run ratio, this floor is immune to the hardware
drift the loose cross-baseline tolerance exists for.

On failure the ratchet additionally prints a per-scenario delta table —
every scenario x mode (and serve point) side by side with the baseline
and the percentage change — so the offending regression is readable at a
glance without re-running anything.

With ``--history <bench_history.jsonl>`` the ratchet additionally prints
a trend table over the last ``HISTORY_RUNS`` appended runs (the bench
binary appends one line per run): per-scenario per_key/fused and serve
throughput side by side, oldest first, so drift that stays above the
loose floor is still visible across commits. The history file is
informational — a missing or malformed file prints a note and never
fails the ratchet.

Usage: throughput_ratchet.py <fresh.json> <baseline.json> [min_ratio]
       [--alloc-check] [--history <bench_history.jsonl>]
"""

import json
import sys

MODES = ("per_key", "fused")
SERVE_SHARD_FLOORS = (1, 4)
# The same run's 2-shard point over its 1-shard point, hosts with >= 2 CPUs.
SERVE_SPEEDUP_FLOOR = 0.6
# Fresh fused allocs_per_txn may exceed the committed fused figure by this.
ALLOC_CEILING = 1.05
# Trend-table depth for --history.
HISTORY_RUNS = 10
# WAL-on serve throughput must stay within 25% of the in-memory pass.
WAL_RATIO_FLOOR = 0.75


def load(path):
    with open(path) as f:
        doc = json.load(f)
    if not doc.get("smoke", False):
        sys.exit(f"{path}: not a smoke run; the ratchet compares smoke against smoke")
    return doc


def throughput_ratchet(fresh, base, min_ratio):
    failures = []
    for name, b in sorted(base.items()):
        if name not in fresh:
            failures.append(f"scenario {name!r} missing from fresh run")
            continue
        for mode in MODES:
            if mode not in b or mode not in fresh[name]:
                failures.append(f"scenario {name!r} has no {mode!r} cell in both files")
                continue
            got = fresh[name][mode]["txns_per_sec"]
            want = b[mode]["txns_per_sec"]
            ratio = got / want if want else float("inf")
            status = "ok" if ratio >= min_ratio else "REGRESSED"
            print(
                f"{name:10} {mode:9} {got:>10.1f} txn/s  baseline {want:>10.1f}"
                f"  ratio {ratio:5.2f}  (floor {min_ratio})  {status}"
            )
            if ratio < min_ratio:
                failures.append(
                    f"scenario {name!r} mode {mode!r}: {got:.1f} txn/s is below "
                    f"{min_ratio} x baseline {want:.1f}"
                )
    return failures


def alloc_ratchet(fresh, base):
    failures = []
    for name, b in sorted(base.items()):
        if name not in fresh:
            failures.append(f"scenario {name!r} missing from fresh run")
            continue
        want = b.get("per_key", {}).get("allocs_per_txn")
        got = fresh[name].get("fused", {}).get("allocs_per_txn")
        if want is None:
            failures.append(
                f"scenario {name!r}: baseline has no per_key allocs_per_txn "
                "(refresh it from an --features alloc-stats build)"
            )
            continue
        if got is None:
            failures.append(
                f"scenario {name!r}: fresh run has no fused allocs_per_txn "
                "(was it built with --features alloc-stats?)"
            )
            continue
        status = "ok" if got < want else "REGRESSED"
        print(
            f"{name:10} fused {got:>10.1f} allocs/txn  per_key baseline "
            f"{want:>10.1f}  {status}"
        )
        if got >= want:
            failures.append(
                f"scenario {name!r}: fused {got:.1f} allocs/txn is not strictly "
                f"below the per_key baseline {want:.1f}"
            )
        own = b.get("fused", {}).get("allocs_per_txn")
        if own is None:
            failures.append(
                f"scenario {name!r}: baseline has no fused allocs_per_txn "
                "(refresh it from an --features alloc-stats build)"
            )
            continue
        ceiling = own * ALLOC_CEILING
        status = "ok" if got <= ceiling else "REGRESSED"
        print(
            f"{name:10} fused {got:>10.1f} allocs/txn  fused baseline   "
            f"{own:>10.1f}  (ceiling {ceiling:.1f})  {status}"
        )
        if got > ceiling:
            failures.append(
                f"scenario {name!r}: fused {got:.1f} allocs/txn exceeds the "
                f"committed fused baseline {own:.1f} by more than "
                f"{(ALLOC_CEILING - 1) * 100:.0f}%"
            )
    return failures


def serve_ratchet(fresh_doc, base_doc, min_ratio):
    base = base_doc.get("serve")
    if base is None:
        print("serve: baseline has no serve section; skipping")
        return []
    fresh = fresh_doc.get("serve")
    if fresh is None:
        return ["fresh run has no serve section but the baseline does"]
    failures = []
    base_pts = {p["shards"]: p for p in base["points"]}
    fresh_pts = {p["shards"]: p for p in fresh["points"]}
    for shards in SERVE_SHARD_FLOORS:
        if shards not in base_pts:
            continue
        if shards not in fresh_pts:
            failures.append(f"serve point at {shards} shard(s) missing from fresh run")
            continue
        got = fresh_pts[shards]["txns_per_sec"]
        want = base_pts[shards]["txns_per_sec"]
        ratio = got / want if want else float("inf")
        status = "ok" if ratio >= min_ratio else "REGRESSED"
        print(
            f"{'serve':10} {f'{shards}shard':9} {got:>10.1f} txn/s  baseline {want:>10.1f}"
            f"  ratio {ratio:5.2f}  (floor {min_ratio})  {status}"
        )
        if ratio < min_ratio:
            failures.append(
                f"serve at {shards} shard(s): {got:.1f} txn/s is below "
                f"{min_ratio} x baseline {want:.1f}"
            )
    # Intra-run, so immune to hardware drift; needs cores to mean anything.
    parallel_host = fresh_doc.get("host_cpus", 1) >= 2
    for shards, p in sorted(fresh_pts.items()):
        speedup = p.get("shard_speedup")
        if speedup is None or shards == 1:
            continue
        floored = parallel_host and shards == 2
        ok = not floored or speedup >= SERVE_SPEEDUP_FLOOR
        note = "" if speedup >= 1.0 else "  (below the 1-shard point)"
        print(
            f"{'serve':10} {f'{shards}shard':9} {speedup:>10.2f} x 1-shard"
            + (f"  (floor {SERVE_SPEEDUP_FLOOR})" if floored else "")
            + f"  {'ok' if ok else 'REGRESSED'}{note}"
        )
        if not ok:
            failures.append(
                f"serve at 2 shards: shard_speedup {speedup:.2f} is below "
                f"{SERVE_SPEEDUP_FLOOR} on a {fresh_doc.get('host_cpus')}-CPU host"
            )
    # Determinism flags are workload-determined, not hardware-determined:
    # any false is a correctness regression, not noise.
    for p in fresh["points"]:
        if not p.get("replay_identical", False):
            failures.append(
                f"serve at {p['shards']} shard(s): replay_identical is false"
            )
    if not fresh.get("union_matches_unsharded", False):
        failures.append("serve: union_matches_unsharded is false")
    return failures


def wal_ratchet(fresh_doc):
    wal = fresh_doc.get("wal")
    if not fresh_doc.get("durability_compiled", False) or wal is None:
        print("wal: durability not compiled into this run; skipping")
        return []
    failures = []
    ratio = wal["throughput_ratio"]
    status = "ok" if ratio >= WAL_RATIO_FLOOR else "REGRESSED"
    print(
        f"{'wal':10} {'on/off':9} {wal['wal_on_txns_per_sec']:>10.1f} txn/s  "
        f"in-memory {wal['wal_off_txns_per_sec']:>10.1f}"
        f"  ratio {ratio:5.2f}  (floor {WAL_RATIO_FLOOR})  {status}"
    )
    if ratio < WAL_RATIO_FLOOR:
        failures.append(
            f"wal: durable throughput ratio {ratio:.3f} is below the "
            f"{WAL_RATIO_FLOOR} floor (WAL tax exceeds 25%)"
        )
    if not wal.get("recovered_identical", False):
        failures.append("wal: recovery was not bit-identical to the in-memory run")
    # Checkpoints exist to shrink the replayed tail: any checkpointed
    # recovery replaying more than full-log recovery is a policy bug.
    points = wal.get("recovery", [])
    full = next((p for p in points if p["checkpoint_every_txns"] == 0), None)
    for p in points:
        if (
            full is not None
            and p["checkpoint_every_txns"]
            and p["replayed_txns"] > full["replayed_txns"]
        ):
            failures.append(
                f"wal: checkpoint every {p['checkpoint_every_txns']} txns "
                f"replayed {p['replayed_txns']} txns, more than the "
                f"uncheckpointed {full['replayed_txns']}"
            )
    return failures


def delta_table(fresh, base, fresh_doc, base_doc):
    """Every scenario x mode (and serve point) against the baseline, with
    the percentage change — printed when the ratchet fails so the
    regression is readable without re-running."""
    rows = []
    for name in sorted(set(base) | set(fresh)):
        for mode in MODES:
            got = fresh.get(name, {}).get(mode, {}).get("txns_per_sec")
            want = base.get(name, {}).get(mode, {}).get("txns_per_sec")
            rows.append((f"{name}/{mode}", got, want))
    base_pts = {p["shards"]: p for p in base_doc.get("serve", {}).get("points", [])}
    fresh_pts = {p["shards"]: p for p in fresh_doc.get("serve", {}).get("points", [])}
    for shards in sorted(set(base_pts) | set(fresh_pts)):
        rows.append(
            (
                f"serve/{shards}shard",
                fresh_pts.get(shards, {}).get("txns_per_sec"),
                base_pts.get(shards, {}).get("txns_per_sec"),
            )
        )
    print("\nper-scenario delta table (fresh vs baseline):")
    print(f"  {'scenario':22} {'fresh':>12} {'baseline':>12} {'delta':>8}")
    for label, got, want in rows:
        if got is None or want is None:
            present = "missing in fresh" if got is None else "missing in baseline"
            print(f"  {label:22} {'-' if got is None else f'{got:.1f}':>12} "
                  f"{'-' if want is None else f'{want:.1f}':>12} {present:>8}")
            continue
        pct = (got - want) / want * 100 if want else float("inf")
        print(f"  {label:22} {got:>12.1f} {want:>12.1f} {pct:>+7.1f}%")


def history_table(path, runs=HISTORY_RUNS):
    """Trend table over the last ``runs`` lines of the bench-history
    JSONL the bench binary appends. Purely informational: any problem
    reading the file prints a note and returns."""
    try:
        with open(path) as f:
            lines = [ln for ln in f if ln.strip()]
    except OSError as e:
        print(f"history: {e}; skipping trend table")
        return
    entries = []
    for ln in lines[-runs:]:
        try:
            entries.append(json.loads(ln))
        except json.JSONDecodeError:
            print(f"history: skipping malformed line {ln[:60]!r}")
    if not entries:
        print("history: no runs recorded yet")
        return
    scenario_names = sorted({n for e in entries for n in e.get("scenarios", {})})
    serve_keys = sorted({k for e in entries for k in e.get("serve_tps", {})})
    cols = [f"{n}/per_key" for n in scenario_names]
    cols += [f"{n}/fused" for n in scenario_names]
    cols += [f"serve/{k}" for k in serve_keys]
    print(f"\nthroughput trend (last {len(entries)} run(s), oldest first, txn/s):")
    print("  " + f"{'ts':>12} {'smoke':>5} " + " ".join(f"{c:>16}" for c in cols))
    for e in entries:
        cells = []
        for n in scenario_names:
            cells.append(e.get("scenarios", {}).get(n, {}).get("per_key_tps"))
        for n in scenario_names:
            cells.append(e.get("scenarios", {}).get(n, {}).get("fused_tps"))
        for k in serve_keys:
            cells.append(e.get("serve_tps", {}).get(k))
        rendered = " ".join(
            f"{'-' if v is None else f'{v:.1f}':>16}" for v in cells
        )
        print(f"  {e.get('ts', 0):>12} {str(e.get('smoke', '?')):>5} {rendered}")


def main():
    argv = sys.argv[1:]
    alloc_check = "--alloc-check" in argv
    history_path = None
    args = []
    i = 0
    while i < len(argv):
        a = argv[i]
        if a == "--alloc-check":
            pass
        elif a == "--history":
            if i + 1 >= len(argv):
                sys.exit("--history requires a path argument")
            i += 1
            history_path = argv[i]
        else:
            args.append(a)
        i += 1
    if len(args) < 2:
        sys.exit(__doc__)
    fresh_path, base_path = args[0], args[1]
    min_ratio = float(args[2]) if len(args) > 2 else 0.2

    fresh_doc = load(fresh_path)
    base_doc = load(base_path)
    fresh = {s["name"]: s for s in fresh_doc["scenarios"]}
    base = {s["name"]: s for s in base_doc["scenarios"]}

    failures = throughput_ratchet(fresh, base, min_ratio)
    failures += serve_ratchet(fresh_doc, base_doc, min_ratio)
    failures += wal_ratchet(fresh_doc)
    if alloc_check:
        failures += alloc_ratchet(fresh, base)
    if history_path is not None:
        history_table(history_path)

    if failures:
        delta_table(fresh, base, fresh_doc, base_doc)
        sys.exit("throughput ratchet failed:\n  " + "\n  ".join(failures))
    print("throughput ratchet passed")


if __name__ == "__main__":
    main()
