#!/usr/bin/env python3
"""Sweep the per-auction overhead against the batch size K.

Auctioning K segment slots at once runs fewer auctions but commits to
bitrates further ahead, so per-segment decisions get staler. With free
auctions K = 1 is best; once each auction costs energy, batching wins.

Run with e.g.:  python demos/overhead_sweep.py --replications 50
"""

import argparse

from cmstream.engine import run_comparison
from cmstream.experiments import heterogeneous_scenario

parser = argparse.ArgumentParser()
parser.add_argument("--replications", type=int, default=50)
args = parser.parse_args()

print("Cooperative vs noncooperative downloading (three-user scenario):")
coop, gen = heterogeneous_scenario("momd")
solo, _ = heterogeneous_scenario("noncooperative")
table = run_comparison([("momd", coop), ("noncooperative", solo)], gen,
                       args.replications)
for row in table.rows:
    print(f"  {row['cell']:>16}: welfare {row['social_welfare']:.2f}, "
          f"rebuffer ratio {row['rebuffer_ratio']:.4f}")
rows = {row["cell"]: row for row in table.rows}
gain = rows["momd"]["social_welfare"] / rows["noncooperative"]["social_welfare"] - 1
print(f"  cooperation gain: {100 * gain:+.1f}%")
print()

overheads = (0.0, 0.2, 1.0)
ks = (1, 2, 4)
# every cell runs on the same seeded traces
cells = [(f"overhead={oh:g},K={k}",
          heterogeneous_scenario("momd", K=k, overhead_energy=oh)[0])
         for oh in overheads for k in ks]
table = run_comparison(cells, gen, args.replications)
welfare = {row["cell"]: row["social_welfare"] for row in table.rows}

print("Mean social welfare by per-auction overhead and K:")
print(f"{'overhead':>9} | " + " | ".join(f"{f'K={k}':>8}" for k in ks))
print("-" * (12 + 11 * len(ks)))
for oh in overheads:
    cells = [welfare[f"overhead={oh:g},K={k}"] for k in ks]
    best = max(cells)
    marks = [f"{v:>7.2f}{'*' if v == best else ' '}" for v in cells]
    print(f"{oh:>9g} | " + " | ".join(marks))
print()
print("* best K at that overhead level")
