#!/usr/bin/env python3
"""Census experiment over cp4.

Runs the exhaustive rank-3 and rank-4 censuses at a chosen bound,
cross-checks the generic checker against the closed-form congruences, and
tabulates which residue of a4 mod 6 is realizable for each (a1, a2, a3).

    python3 scripts/cp4_census.py --bound 6
"""

import argparse
from collections import Counter

from bundlecensus import builtin, enumerate_cp4, rr_value


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bound", type=int, default=6)
    args = parser.parse_args()

    results = {rank: enumerate_cp4(args.bound, rank) for rank in (4, 3)}
    for rank, result in results.items():
        realizable = result.realizable()
        disagreements = result.disagreements()
        print(
            f"rank {rank}: {len(realizable)} of {len(result.rows)} tuples realizable, "
            f"{len(disagreements)} cross-check disagreements"
        )
        if disagreements:
            return 1

    data = builtin("cp4")
    residues = Counter()
    for coeffs in results[4].realizable():
        residues[coeffs[3] % 6] += 1
    print("realizable a4 residues mod 6:", dict(sorted(residues.items())))

    print("sample Riemann-Roch values:")
    for coeffs in ((0, 0, 0, 6), (0, 0, 0, 1), (4, 6, 4, 1), (0, 1, 0, 0)):
        u = data.chern_tuple(*((c,) for c in coeffs))
        print(f"  rr{coeffs} = {rr_value(data, u, self_check=True)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
