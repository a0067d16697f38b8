"""Locality analysis and a small benchmark sweep.

Generates a synthetic two-sided feed, plots its price-difference
histograms as data files, replays it through glass-backed and
red-black-tree-backed books, and measures isolated operations over a
few copy counts. Full-scale sweeps are the CLI's job; this is a taste.

Run:  python3 demos/05_benchmarks.py
"""

import tempfile
from pathlib import Path

from glasstrie.benchkit.amplify import amplify
from glasstrie.benchkit.bench import (
    ratio_sweep,
    replay_workload,
    run_bench,
    synth_workload,
)
from glasstrie.benchkit.events import write_events
from glasstrie.benchkit.locality import locality_histograms
from glasstrie.benchkit.synth import market_events

out_dir = Path(tempfile.mkdtemp(prefix="glasstrie-demo-"))

print("== a synthetic feed and its locality ==")
events = market_events(seed=11, count=20_000, key_bits=50)
write_events(events, out_dir / "events.txt", header="synthetic demo feed")
seq, edge = locality_histograms(events)
for hist, name in ((seq, "sequential"), (edge, "edge")):
    hist.write(out_dir / f"{name}.txt")
    near = sum(c for d, c in hist.bins.items() if d <= 5)
    print(f"  {name:>10}: {hist.total} samples, "
          f"{100 * near / hist.total:.0f}% within 5 ticks "
          f"-> {out_dir / (name + '.txt')}")

print("\n== isolated operations, one copy (ns/op, best of 3) ==")
print(f"{'family':>8} {'glass':>8} {'rb-tree':>8}")
for family in ("insert", "erase", "find-e", "find-ne"):
    w = synth_workload(family, seed=2, count=512)
    # the fastest of 3 runs: timing noise on a shared machine only adds
    cells = [
        min(run_bench(s, w, copies=1, iterations=8).ns_per_op for _ in range(3))
        for s in ("glass", "rbt")
    ]
    print(f"{family:>8} {cells[0]:>8.0f} {cells[1]:>8.0f}")

print("\n== feed replay through full books, a few copy counts ==")
workload = replay_workload(events=events[:4000], max_size=256)
print(f"{'copies':>6} {'glass':>9} {'rb-tree':>9} {'speedup':>8}")
for row in ratio_sweep(workload, copies_list=[1, 4, 16], iterations=1):
    print(f"{row.copies:>6} {row.glass_ns:>9.0f} {row.rbt_ns:>9.0f} {row.ratio_rbt:>8.2f}")

print("\n== amplification isolates read-only iteration ==")
amplified = amplify(events[:4000], 50)
print(f"  {len(events[:4000])} events -> {len(amplified)} after 50x on iteration "
      f"(other read-only ops dropped)")
