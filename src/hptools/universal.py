"""Universal bipartite/layered graphs and the shattering calculus.

``A -> B`` ("A shatters B") means the traces ``adj[a] & B`` over ``a in A``
realize every one of the ``2^|B|`` subsets of B.  Equivalently the host
contains the universal bipartite graph U(|B|) across (A', B) for some
A' subset of A.
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple

from .errors import DomainError
from .graphs import MAX_VERTICES, Graph, bits, graph_from_lower, k_submasks, mask_of

MAX_TRACE_GROUND = 30


# ---------------------------------------------------------------------------
# the trace kernel and Sauer search


def sauer_bound(g: int, k: int) -> int:
    """sum_{i<k} C(g, i): families above this size must shatter a k-set."""
    return sum(comb(g, i) for i in range(k))


def first_realizers(rows, pool: int, X: int, need: int) -> dict[int, int]:
    """Map each trace ``rows[a] & X`` to its first realizer a, scanning a
    over ``bits(pool)`` in ascending order and stopping once ``need``
    traces are found.  X is shattered iff ``need = 2^|X|`` are found."""
    found: dict[int, int] = {}
    for a in bits(pool):
        tr = rows[a] & X
        if tr not in found:
            found[tr] = a
            if len(found) == need:
                break
    return found


def first_shattered(rows, pool: int, ground: int, k: int):
    """(X, realizers) for the first k-subset X of ``ground`` (colex order)
    on which the rows of ``pool`` leave all 2^k traces, or None."""
    need = 1 << k
    for X in k_submasks(ground, k):
        realizers = first_realizers(rows, pool, X, need)
        if len(realizers) == need:
            return X, realizers


def sauer_find_shattered(ground: int, traces, k: int) -> int:
    """The first k-subset of ``ground`` (colex order) shattered by the
    family of distinct ``traces``, each a subset of ``ground``.  The family
    must have more than ``sauer_bound(|ground|, k)`` members, so that by
    Sauer-Shelah such a k-subset exists."""
    if k < 0:
        raise DomainError(f"k must be non-negative; got k = {k}")
    if ground.bit_count() > MAX_TRACE_GROUND:
        raise DomainError(f"ground set larger than {MAX_TRACE_GROUND}")
    rows = tuple(frozenset(traces))
    if any(t & ~ground for t in rows):
        raise DomainError("trace not contained in the ground set")
    if len(rows) <= sauer_bound(ground.bit_count(), k):
        raise DomainError("Sauer bound not met")
    return first_shattered(rows, (1 << len(rows)) - 1, ground, k)[0]


# ---------------------------------------------------------------------------
# shattering between vertex sets


def shatters(G: Graph, A: int, B: int) -> dict[int, int] | None:
    """The realizers {trace: vertex} witnessing that A shatters B, one for
    each subset of B, or None.  Exhaustive: no false negatives."""
    if A & B:
        raise DomainError("A and B overlap")
    need = 1 << B.bit_count()
    if A.bit_count() < need:
        return None
    realizers = first_realizers(G.adj, A, B, need)
    return realizers if len(realizers) == need else None


# ---------------------------------------------------------------------------
# universal graph constructions


class BipartiteUniversal(NamedTuple):
    graph: Graph
    A: int
    B: int


def construct_universal(k: int) -> BipartiteUniversal:
    """U(k): parts A of size 2^k and B of size k, vertex a adjacent to the
    subset of B given by its index bits."""
    if not 1 <= k <= 5:
        raise DomainError("universal level k must be in 1..5")
    na = 1 << k
    n = na + k
    # b_j = na + j joins the a whose index has bit j
    lower = [0] * na + [mask_of(a for a in range(na) if a >> j & 1)
                        for j in range(k)]
    A = (1 << na) - 1
    B = ((1 << n) - 1) ^ A
    return BipartiteUniversal(graph_from_lower(n, lower), A, B)


class LayeredUniversal(NamedTuple):
    """U(r,k) and its starred variant: layer j+1 shatters the union of all
    earlier layers via subset labeling; within-layer edges are empty, or a
    clique when the pattern bit says so."""

    graph: Graph
    layers: tuple[int, ...]


def universal_layer_sizes(r: int, k: int) -> list[int]:
    sizes = [k]
    for _ in range(r - 1):
        if sizes[-1] > MAX_VERTICES:  # cannot fit: form no power past it
            break
        sizes.append(1 << sum(sizes))
    return sizes


def _build_layered(r: int, k: int, v: tuple[int, ...] | None) -> LayeredUniversal:
    if r < 1 or k < 1:
        raise DomainError("need r >= 1 and k >= 1")
    sizes = universal_layer_sizes(r, k)
    if len(sizes) < r or sum(sizes) > MAX_VERTICES:
        raise DomainError(f"U({r},{k}) does not fit in {MAX_VERTICES} vertices")
    lower: list[int] = []
    layers = []
    offset = 0
    for j, size in enumerate(sizes):
        layers.append(((1 << size) - 1) << offset)
        # past layer 0, vertex offset + m joins exactly the prefix subset
        # with index m, since the prefix is vertices 0..offset-1; in a
        # clique layer it also joins the layer's earlier vertices
        clique = v is not None and v[j] == 1
        lower += [(m if j else 0) | (((1 << m) - 1) << offset if clique else 0)
                  for m in range(size)]
        offset += size
    return LayeredUniversal(graph_from_lower(offset, lower), tuple(layers))


def construct_generalized_universal(r: int, k: int) -> LayeredUniversal:
    return _build_layered(r, k, None)


def construct_universal_star(r: int, k: int, v) -> LayeredUniversal:
    v = tuple(v)
    if len(v) != r:
        raise DomainError("pattern length must equal the number of layers")
    if any(b not in (0, 1) for b in v):
        raise DomainError("pattern entries must be 0 or 1")
    return _build_layered(r, k, v)


# ---------------------------------------------------------------------------
# reverse shattering (the constructive direction flips)


def aligned_reverse_shatter(G: Graph, A_list, B: int, t: int):
    """Reverse shattering with a shared labeling: from A_j -> B for every j
    and |B| >= 2^(rt), produce (A'_1..A'_r, B') with B' -> union of the
    A'_j and |A'_j| = t.  One set (r = 1) gives the plain flip of A -> B.

    The 2^(rt) lowest vertices of B form B' and are labeled with the binary
    hypercube in index order; A'_j collects A_j's realizers of the t
    origin-containing faces jt .. jt + t - 1.  B' shatters the union by
    construction: the vertex of B' with label L is adjacent to the realizer
    of face i exactly when bit i of L is 0, and the labels run over all
    2^(rt) bit patterns.  The rt realizers are distinct, as their traces on
    B' are, and lie outside B.
    """
    A_list = list(A_list)
    r = len(A_list)
    if r < 1 or t < 0:
        raise DomainError("need r >= 1 and t >= 0")
    seen = 0
    for A in A_list:
        if A & seen or A & B:
            raise DomainError("the A_j and B must be pairwise disjoint")
        seen |= A
    if B.bit_count() < 1 << (r * t):
        raise DomainError("need |B| >= 2^(r*t)")
    witnesses = [shatters(G, A, B) for A in A_list]
    if None in witnesses:
        raise DomainError("every A_j must shatter B")
    b_verts = list(bits(B))[:1 << (r * t)]
    faces = [mask_of(b for label, b in enumerate(b_verts) if not label >> i & 1)
             for i in range(r * t)]
    out = [mask_of(witnesses[j][faces[i]] for i in range(j * t, (j + 1) * t))
           for j in range(r)]
    return out, mask_of(b_verts)
