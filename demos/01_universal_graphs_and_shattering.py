"""Universal bipartite graphs, shattering, and the reverse construction.

Walks through the basic objects: U(k) with its subset labeling, the
layered generalizations, witnesses for `A shatters B`, and the flip that
turns a shattered set around.
"""

from hptools import (aligned_reverse_shatter, bits,
                     construct_generalized_universal, construct_universal,
                     construct_universal_star, graph6_encode, sauer_bound,
                     shatters)


def show(mask):
    return sorted(bits(mask))


print("=" * 60)
print("The universal bipartite graph U(k)")
print("=" * 60)
for k in range(1, 5):
    uni = construct_universal(k)
    print(f"U({k}): |A| = {uni.A.bit_count()}, |B| = {uni.B.bit_count()}, "
          f"edges = {uni.graph.edge_count()} (= k 2^(k-1)), "
          f"graph6 = {graph6_encode(uni.graph).decode()}")

uni = construct_universal(3)
w = shatters(uni.graph, uni.A, uni.B)
print(f"\nA shatters B: every one of the {len(w)} subsets of B is "
      "some vertex's exact neighbourhood trace:")
for trace, vertex in sorted(w.items())[:4]:
    print(f"  trace {show(trace)} realized by vertex {vertex}")
print("  ...")

print()
print("=" * 60)
print("Layered universal graphs: each layer shatters all earlier ones")
print("=" * 60)
for r, k in [(2, 1), (3, 1), (2, 3)]:
    lay = construct_generalized_universal(r, k)
    sizes = [m.bit_count() for m in lay.layers]
    print(f"U({r},{k}): layer sizes {sizes} (each next = 2^(sum of previous)), "
          f"total {lay.graph.n}")

star = construct_universal_star(3, 1, (0, 1, 0))
plain = construct_generalized_universal(3, 1)
print(f"\nStar variant U*_v(3,1) with v = (0,1,0): the size-2 layer becomes a "
      f"clique,\nadding {star.graph.edge_count() - plain.graph.edge_count()} edge "
      f"over the plain version's {plain.graph.edge_count()}.")

print()
print("=" * 60)
print("Reverse shattering: from A -> B to B' -> A'")
print("=" * 60)
uni = construct_universal(4)
print(f"Start from U(4): A (16 vertices) shatters B (4 vertices).")
for t in (1, 2):
    (A2,), B2 = aligned_reverse_shatter(uni.graph, [uni.A], uni.B, t)
    check = shatters(uni.graph, B2, A2)
    print(f"  t = {t}: pick the {2 ** t} lowest B-vertices as a hypercube, "
          f"collect the realizers of its origin faces:")
    print(f"    A' = {show(A2)} (size {t}), B' = {show(B2)}; "
          f"B' shatters A': {check is not None}")

print(f"\nThe Sauer threshold behind all of this: a family of more than "
      f"sum_i<k C(g,i)\nsubsets of a g-set shatters some k-set; e.g. "
      f"g = 12, k = 3 needs > {sauer_bound(12, 3)} traces.")
