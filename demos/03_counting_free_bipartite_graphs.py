"""Exact counts of U(k)-free bipartite graphs and the finite pieces of the
counting arguments: per-block trace ceilings, non-shattering attachments,
and sparse-graph counts.
"""

import math

from hptools import (count_nonshattering_attachments, count_sparse_bipartite,
                     count_uk_free_bipartite, random_bipgraph, trace_count_check)
from hptools.errors import DomainError

print("=" * 64)
print("f(m, n, k): cross-edge patterns whose host is U(k)-free")
print("=" * 64)
print(f"{'m x n':>6} {'k':>2} {'whole':>7} {'cross':>7}   (of 2^(mn))")
for m, n in [(2, 2), (3, 3), (4, 4), (2, 8)]:
    for k in (1, 2):
        w = count_uk_free_bipartite(m, n, k, "whole")
        c = count_uk_free_bipartite(m, n, k, "cross")
        print(f"{m:>3}x{n:<2} {k:>2} {w:>7} {c:>7}   / {1 << (m * n)}")
print("""
Whole mode is the one-graph definition (the k-set may land anywhere);
cross mode pins the k-set to the right part, the nondegenerate reading
for bipartite hosts.  Monotone in k: every U(k+1) copy contains a U(k).
""")

print("=" * 64)
print("The trend: log2 f(n, n, 2) / n^2, the exponent against 2^(n^2)")
print("=" * 64)
print(f"{'n x n':>6} {'whole':>9} {'cross':>9}   log2(f)/n^2: whole  cross")
for n in range(2, 6):
    w = count_uk_free_bipartite(n, n, 2, "whole")
    c = count_uk_free_bipartite(n, n, 2, "cross")
    print(f"{n:>3}x{n:<2} {w:>9} {c:>9}   {math.log2(w) / n ** 2:>18.3f} "
          f"{math.log2(c) / n ** 2:>6.3f}")
print("""
The counting theorem puts f below 2^(n^(2 - eps)), so the exponent tends
to 0; at these sizes it has only begun to fall.  Both searches use a
symmetry of the columns.  Cross mode searches only the free sets of row
values that hold 0: x -> x ^ u flips the columns of u, which permutes the
traces on every k-set of B.  Whole mode searches one set per orbit of the
n! column permutations, the lex-least, weighted by the orbit's size.
""")

print("=" * 64)
print("Trace ceilings per block (the counting theorem's engine)")
print("=" * 64)
import random
rng = random.Random(5)
found = None
while found is None:
    bg = random_bipgraph(6, 8, 0.18, seed=rng.random())
    try:
        found = trace_count_check(bg, [0b00001111, 0b11110000], 2)
    except DomainError:
        continue
print("a rejection-sampled U(2)-free host on 6 x 8, blocks of size 4:")
for rep in found:
    print(f"  block size {rep.size}: {rep.trace_count} distinct traces "
          f"<= exact ceiling {rep.sauer_ceiling} "
          f"(printed ceiling k C(s, k-1) = {rep.loose_ceiling})")

print()
print("=" * 64)
print("Non-shattering attachments (how a packed copy meets the rest)")
print("=" * 64)
print(f"{'a':>2} {'n':>2} {'exact':>7} {'printed (2^a-1)^n':>18} "
      f"{'corrected 2^a(2^a-1)^n':>24}")
for a in (1, 2, 3):
    for n in (2, 4, 6):
        exact, printed, corrected = count_nonshattering_attachments(a, n)
        flag = "  <-- printed bound already fails" if exact > printed else ""
        print(f"{a:>2} {n:>2} {exact:>7} {printed:>18} {corrected:>24}{flag}")
print("""
The printed bound forgets the choice of missing trace (a factor of at most
2^a, harmless asymptotically); only the corrected bound holds exactly.
""")

print("=" * 64)
print("Sparse bipartite counts vs the 2^(delta n^2) ceiling")
print("=" * 64)
for n, d in [(2, 0.5), (4, 0.25), (5, 0.2)]:
    res = count_sparse_bipartite(n, d)
    cmp = "<=" if res.count <= res.bound else "> (ceiling is asymptotic)"
    print(f"  n = {n}, delta = {d}: exact {res.count} {cmp} 2^(delta n^2) "
          f"= {res.bound:.0f}")
