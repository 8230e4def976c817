#!/usr/bin/env python3
"""Census experiment over cp4, or any builtin.

Runs the exhaustive rank-4 and rank-3 censuses at a chosen bound and prints
the time per tuple of each, the best of 5 runs.  On cp4 (the default) it
times ``enumerate_cp4`` and, beside it, the generic census
(``census.enumerate``) alone, so that the share of building rows and the
closed-form column shows; it cross-checks the generic census against the
closed-form congruences, prints the congruences compiled from the data
(``data.congruences``) in the paper's form and the residue table of the
closed form (for each residue t mod 12 that (a1, a2, a3) folds to, the
admissible a4 mod 6), and checks the realizable rank-4 count of the box
against the table's.
With --builtin it runs the generic census (``census.enumerate``) alone on
that builtin.

    python3 scripts/cp4_census.py --bound 6
    python3 scripts/cp4_census.py --builtin cp2xcp2 --bound 1
"""

import argparse
import time
from itertools import product

from bundlecensus import BUILTIN_NAMES, builtin, census, enumerate_cp4, rr_value
from bundlecensus.census import cp4_rank4_admissible


def best_of_5(run):
    """What run() returns, and the least time in seconds of 5 calls."""
    seconds = []
    for _ in range(5):
        start = time.perf_counter()
        result = run()
        seconds.append(time.perf_counter() - start)
    return result, min(seconds)


def congruence(congruences, column: tuple[int, ...], scale, modulus: int) -> str:
    """2*a4 = scale * column mod modulus on cp4, whose flat coordinates are a1..a4, the
    coefficients in (-modulus/2, modulus/2] and the terms by degree."""
    terms = []
    for mono, c in sorted(zip(congruences.monomials, column), key=lambda term: (-len(term[0]), term[0])):
        c = scale * c % modulus
        c -= modulus if c > modulus // 2 else 0
        if c:
            powers = [f"a{i + 1}" + (f"^{mono.count(i)}" if mono.count(i) > 1 else "") for i in sorted(set(mono))]
            terms.append(("- " if c < 0 else "+ ") + (f"{abs(c)}*" if abs(c) != 1 else "") + "*".join(powers))
    return f"2*a4 = {' '.join(terms).removeprefix('+ ') or '0'} mod {modulus}"


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

    # <u4> = a4 on cp4, so (2) is 2*a4 = 2*rhs(2) mod 3 and (3) is 2*a4 = 4*rhs(3)/2 mod 4
    # (4*rhs(3) has even coefficients on cp4)
    congruences = data.congruences
    _, rhs2, rhs3_times4 = congruences.conditions
    print("compiled congruences (data.congruences), where (1) holds, a3 = a1*a2 mod 2:")
    print("  " + congruence(congruences, rhs2, 2, 3))
    print("  " + congruence(congruences, [c // 2 for c in rhs3_times4], 1, 4))
    # the closed form at (a1, a2, a3, a4) is its value at (1, 0, t, a4), which reads a4 mod 6
    print("admissible a4 by t = (4*a1 + 9)*a3 - a2*(a2 + 1 + a1*(4*a1 + 9)) mod 12:")
    residues = {t: [a4 for a4 in range(6) if cp4_rank4_admissible(1, 0, t, a4)] for t in range(12)}
    for t, a4s in residues.items():
        admissible = f"a4 = {', '.join(map(str, a4s))} mod 6" if a4s else "none, as 2*a4 = -t mod 4 needs t even"
        print(f"  t = {t:2} mod 12: {admissible}")
    box = range(-args.bound, args.bound + 1)
    predicted = sum(
        a4 % 6 in residues[((4 * a1 + 9) * a3 - a2 * (a2 + 1 + a1 * (4 * a1 + 9))) % 12]
        for a1, a2, a3, a4 in product(box, repeat=4)
    )
    realizable = len(results[4].realizable())
    print(f"rank 4: the table predicts {predicted} realizable tuples, the census found {realizable}")
    if predicted != realizable:
        return 1

    print("sample Riemann-Roch values:")
    for coeffs in ((0, 0, 0, 6), (0, 0, 0, 1), (4, 6, 4, 1), (0, 1, 0, 0)):
        u = data.chern_tuple(*((c,) for c in coeffs))
        print(f"  rr{coeffs} = {rr_value(data, u, self_check=True)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
