"""Sweep the second-eigenvalue window bound across graph sizes.

For each family and each n in the grid this runs the theorem instance at
x = lambda_2 with theta = 10 / log_{delta_tilde} n, records the measured
window mass, the predicted rate, and the implied constant, and re-checks
the finite-parameter bound at the same x.  Everything goes through the
`spectop sweep` command so the run leaves a manifest and is replayable
byte for byte from the emitted config file.

Usage:
    python3 scripts/second_eig_sweep.py --out-dir out/second-eig
    python3 scripts/second_eig_sweep.py --sizes 256,512,1024 --seed 3
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from spectop.cli import main as spectop_main


def parse_args() -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", default="256,512,1024,2048,4096",
                    help="comma-separated n grid")
    ap.add_argument("--d", type=int, default=4,
                    help="degree for the random-regular family")
    ap.add_argument("--seed", type=int, default=17)
    ap.add_argument("--out-dir", default="out/second-eig")
    return ap.parse_args()


def main() -> int:
    args = parse_args()
    sizes = [int(s) for s in args.sizes.split(",")]
    os.makedirs(args.out_dir, exist_ok=True)

    config = {
        "suite": "second-eig",
        "seed": args.seed,
        "families": [
            {"family": "cycle"},
            {"family": "random-regular", "d": args.d},
        ],
        "grid": {"n": sizes},
        "out_dir": args.out_dir,
    }
    cfg_path = os.path.join(args.out_dir, "config.json")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2, sort_keys=True)

    rc = spectop_main(["sweep", "--config", cfg_path])
    if rc != 0:
        return rc

    # summarize the emitted rows: the bound says the window mass is at most
    # C * rate with C independent of n, so the implied constant lhs / rate
    # should stay bounded as n grows.
    csv_path = os.path.join(args.out_dir, "second-eig.csv")
    with open(csv_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    print()
    print(f"{'family':<16}{'n':>6}{'theta':>10}{'lhs':>12}{'rate':>12}"
          f"{'implied':>10}  fp_ok")
    for row in rows:
        print(f"{row['family']:<16}{row['n']:>6}"
              f"{float(row['theta']):>10.4f}{float(row['lhs']):>12.5g}"
              f"{float(row['rate']):>12.5g}"
              f"{float(row['implied_constant']):>10.4f}  {row['fp_ok']}")
    by_family: dict[str, list[float]] = {}
    for row in rows:
        by_family.setdefault(row["family"], []).append(
            float(row["implied_constant"]))
    print()
    for fam, vals in by_family.items():
        print(f"{fam}: implied constant in [{min(vals):.4f}, {max(vals):.4f}] "
              f"over {len(vals)} sizes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
