#!/usr/bin/env python3
"""Census experiment over cp4, or any builtin.

Runs the exhaustive rank-4 and rank-3 censuses at a chosen bound and prints
the time per tuple of each, the best of 5 runs.  On cp4 (the default) it
times ``enumerate_cp4`` and, beside it, the generic census
(``census.enumerate``) alone, so that the share of building rows and the
closed-form column shows; it cross-checks the generic census against the
closed-form congruences and tabulates which residue of a4 mod 6 is
realizable for each (a1, a2, a3).
With --builtin it runs the generic census (``census.enumerate``) alone on
that builtin.

    python3 scripts/cp4_census.py --bound 6
    python3 scripts/cp4_census.py --builtin cp2xcp2 --bound 1
"""

import argparse
import time
from collections import Counter

from bundlecensus import BUILTIN_NAMES, builtin, census, enumerate_cp4, rr_value


def best_of_5(run):
    """What run() returns, and the least time in seconds of 5 calls."""
    seconds = []
    for _ in range(5):
        start = time.perf_counter()
        result = run()
        seconds.append(time.perf_counter() - start)
    return result, min(seconds)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bound", type=int, default=6)
    parser.add_argument("--builtin", choices=BUILTIN_NAMES, help="generic census on this builtin")
    args = parser.parse_args()

    results = {}
    data = builtin(args.builtin or "cp4")
    for rank in (4, 3):
        rows, seconds = best_of_5(lambda: census.enumerate(data, args.bound, rank))
        us = seconds / len(rows) * 1e6
        realizable = sum(generic for _, generic in rows)
        line = f"rank {rank}: {realizable} of {len(rows)} tuples realizable, {us:.2f} us per tuple"
        if args.builtin:
            print(line)
            continue
        results[rank], seconds = best_of_5(lambda: enumerate_cp4(args.bound, rank, data))
        us_cp4 = seconds / len(rows) * 1e6
        disagreements = results[rank].disagreements()
        print(
            f"{line} in census.enumerate, {us_cp4:.2f} in enumerate_cp4, "
            f"{len(disagreements)} cross-check disagreements"
        )
        if disagreements:
            return 1
    if args.builtin:
        return 0

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
