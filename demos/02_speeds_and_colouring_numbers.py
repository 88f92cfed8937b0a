"""Hereditary properties at desk scale: membership, exact speeds, the
colouring number, and the speed envelope it implies.

The speed of a property is n |-> |P_n|, counting labeled members on [n].
Its exponential growth rate is governed by the colouring number: the
largest r such that some mixed r-partition class H(r,v) sits inside the
property.
"""

from hptools import (PropertySpec, abt_bounds, colouring_number, count_hrv,
                     graph_from_edges, speed, valid_hrv_patterns)


def K(n):
    return graph_from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def C(n):
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


for name, forb in [("triangle-free", [K(3)]),
                   ("induced-C4-free", [C(4)]),
                   ("{K4}-free", [K(4)])]:
    spec = PropertySpec.from_graphs(forb)
    chi = colouring_number(spec)
    print("=" * 64)
    print(f"property: {name}   colouring number chi_c = {chi.value} "
          f"(witness pattern v = {chi.witness_v})")
    print("=" * 64)
    patterns = valid_hrv_patterns(spec)
    print(f"patterns v with H(len(v), v) inside the property: {patterns}")
    print(f"{'n':>2} {'|P_n|':>10} {'entropy':>9} {'H(r,v) lower':>13} "
          f"{'envelope log2':>22}")
    for n in range(1, 7):
        row = speed(spec, n)
        lower = max(count_hrv(n, v) for v in patterns)
        lo, hi = abt_bounds(n, chi.value, 0.5)
        print(f"{n:>2} {row.count:>10} {row.entropy:>9.4f} {lower:>13} "
              f"[{lo:>8.2f}, {hi:>8.2f}]")
    print()

print("Notes: the class-count column is the finite form of the trivial lower")
print("bound (members of any H(r,v) inside P are members of P); the envelope")
print("is the structure theorem's (1 - 1/r) n^2/2 exponent with slack n^1.5.")
print("Entropy converging toward 1 - 1/chi_c is an asymptotic statement;")
print("these tiny n only hint at the trend.")
