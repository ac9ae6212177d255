#!/usr/bin/env python3
"""Exact solution counting in set windows.

Walks through the two counting engines (full enumeration vs the
meet-in-the-middle key join), the closed-form trivial count, solution
streaming, greedy construction of nontrivial-solution-free sets, and a count
at the paper's arity s0(2) = 42.
"""

import math

from circlecount import (
    SetWindow,
    count_solutions,
    greedy_solution_free,
    stream_solutions,
    trivial_count,
    validate_system,
    vinogradov_moment,
)

# x1 + x2 + x3 = y1 + y2 + y3 together with the same equation on squares:
# the smallest window with a nontrivial solution is [1, 7]
system = validate_system(2, (1, 1, 1, -1, -1, -1))

print("== counts on full intervals ==")
for n in (5, 6, 7, 8, 10, 12):
    tally = count_solutions(system, SetWindow.full(n), method="auto")
    print(f"  [1,{n:2d}] total={tally.total:7d} trivial={tally.trivial:7d} "
          f"nontrivial={tally.nontrivial:5d}")

print("\n== the two engines agree (and the trivial formula with them) ==")
window = SetWindow.from_elements(9, [1, 2, 3, 5, 6, 7, 9])
naive = count_solutions(system, window, method="naive")
mitm = count_solutions(system, window, method="mitm")
print(f"  naive: {naive}")
print(f"  mitm : {mitm}")
print(f"  closed-form trivial count: {trivial_count(system, window.cardinality)}")

print("\n== the first few nontrivial solutions in [1, 7], lexicographic ==")
for i, sol in enumerate(stream_solutions(system, SetWindow.full(7), "nontrivial")):
    print(f"  {sol}")
    if i >= 4:
        print("  ...")
        break

print("\n== greedy nontrivial-solution-free subsets ==")
for n in (7, 10, 14, 18):
    free = greedy_solution_free(system, n)
    print(f"  N={n:2d}: size {free.cardinality:2d}  {free.elements()}")

print("\n== even-moment counts (pairs of tuples with equal power sums) ==")
print("  t=1 forces x = y, so the count is N:",
      [vinogradov_moment(n, 2, 1) for n in (5, 10, 20)])
print("  t=2, k=2 gives 2N^2 - N:",
      [(n, vinogradov_moment(n, 2, 2)) for n in (5, 10, 20)])

print("\n== s = 42 = s0(2) variables over A = {3, 7} ==")
# over two values every solution is trivial: choose the 21 variables set to 3
wide = validate_system(2, (1,) * 21 + (-1,) * 21)
tally = count_solutions(wide, SetWindow.from_elements(7, (3, 7)))
print(f"  total={tally.total} trivial={tally.trivial} nontrivial={tally.nontrivial}")
print(f"  C(42, 21) = {math.comb(42, 21)}")
