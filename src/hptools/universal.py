"""Universal bipartite/layered graphs and the shattering calculus.

``A -> B`` ("A shatters B") means the traces ``adj[a] & B`` over ``a in A``
realize every one of the ``2^|B|`` subsets of B.  Equivalently the host
contains the universal bipartite graph U(|B|) across (A', B) for some
A' subset of A.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import comb

from .errors import DomainError
from .graphs import Graph, bits, bottom_bits, contains_induced, k_submasks

MAX_SHATTER_TARGET = 20
MAX_TRACE_GROUND = 30


# ---------------------------------------------------------------------------
# trace families and Sauer search


@dataclass(frozen=True)
class TraceFamily:
    """A deduplicated family of subsets (bitmasks) of a ground vertex set."""

    ground: int
    traces: frozenset[int]

    def __post_init__(self):
        if self.ground.bit_count() > MAX_TRACE_GROUND:
            raise DomainError(f"ground set larger than {MAX_TRACE_GROUND}")
        for t in self.traces:
            if t & ~self.ground:
                raise DomainError("trace not contained in the ground set")


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


def find_shattered(family: TraceFamily, k: int):
    """Exhaustive search (colex order) for a shattered k-subset of the ground.

    Relaxed entry point: no size precondition; returns None when no k-subset
    is shattered.
    """
    traces = tuple(family.traces)
    pool = (1 << len(traces)) - 1
    need = 1 << k
    for X in k_submasks(family.ground, k):
        if len(first_realizers(traces, pool, X, need)) == need:
            return X
    return None


def sauer_find_shattered(family: TraceFamily, k: int) -> int:
    """Find a shattered k-set after checking the counting precondition."""
    g = family.ground.bit_count()
    if len(family.traces) <= sauer_bound(g, k):
        raise DomainError("Sauer bound not met")
    X = find_shattered(family, k)
    assert X is not None, "counting bound met but no shattered set found"
    return X


# ---------------------------------------------------------------------------
# shattering between vertex sets


def shatters(G: Graph, A: int, B: int) -> dict[int, int] | None:
    """The realizers {trace: vertex} witnessing that A shatters B, one for
    each subset of B, or None.  Exhaustive: no false negatives."""
    if A & B:
        raise DomainError("A and B overlap")
    k = B.bit_count()
    if k > MAX_SHATTER_TARGET:
        raise DomainError(f"shatter target larger than {MAX_SHATTER_TARGET}")
    need = 1 << k
    if A.bit_count() < need:
        return None
    realizers = first_realizers(G.adj, A, B, need)
    return realizers if len(realizers) == need else None


# ---------------------------------------------------------------------------
# universal graph constructions


@dataclass(frozen=True)
class BipartiteUniversal:
    graph: Graph
    A: int
    B: int
    k: int


def construct_universal(k: int) -> BipartiteUniversal:
    """U(k): parts A of size 2^k and B of size k, vertex a adjacent to the
    subset of B given by its index bits."""
    if not 1 <= k <= 5:
        raise DomainError("universal level k must be in 1..5")
    na = 1 << k
    n = na + k
    adj = [0] * n
    for a in range(na):
        for j in range(k):
            if a >> j & 1:
                b = na + j
                adj[a] |= 1 << b
                adj[b] |= 1 << a
    A = (1 << na) - 1
    B = ((1 << n) - 1) ^ A
    return BipartiteUniversal(Graph(n, tuple(adj)), A, B, k)


@dataclass(frozen=True)
class LayeredUniversal:
    """U(r,k) and its starred variant: layer j+1 shatters the union of all
    earlier layers via subset labeling; within-layer edges are empty, or a
    clique when the pattern bit says so."""

    graph: Graph
    layers: tuple[int, ...]
    k: int
    v: tuple[int, ...] | None = None

    @property
    def r(self) -> int:
        return len(self.layers)


def universal_layer_sizes(r: int, k: int) -> list[int]:
    sizes = [k]
    for _ in range(r - 1):
        sizes.append(1 << sum(sizes))
        if sizes[-1] > 1 << 12:
            break
    return sizes


def _build_layered(r: int, k: int, v: tuple[int, ...] | None) -> LayeredUniversal:
    if r < 1 or k < 1:
        raise DomainError("need r >= 1 and k >= 1")
    sizes = universal_layer_sizes(r, k)
    if len(sizes) < r or sum(sizes) > 64:
        raise DomainError(f"U({r},{k}) does not fit in 64 vertices")
    n = sum(sizes)
    adj = [0] * n
    layers = []
    offset = 0
    prefix_vertices: list[int] = []
    for j, size in enumerate(sizes):
        layer_mask = ((1 << size) - 1) << offset
        layers.append(layer_mask)
        if j > 0:
            # vertex (offset + m) joins exactly the prefix subset with index m
            for m in range(size):
                vtx = offset + m
                for i, p in enumerate(prefix_vertices):
                    if m >> i & 1:
                        adj[vtx] |= 1 << p
                        adj[p] |= 1 << vtx
        if v is not None and v[j] == 1:
            for x in range(offset, offset + size):
                for y in range(offset, x):
                    adj[x] |= 1 << y
                    adj[y] |= 1 << x
        prefix_vertices.extend(range(offset, offset + size))
        offset += size
    return LayeredUniversal(Graph(n, tuple(adj)), tuple(layers), k, v)


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


def reverse_shatter(G: Graph, A: int, B: int, t: int):
    """From A -> B with |B| >= 2^t, produce (A', B') with B' -> A', |A'| = t:
    the aligned reverse construction with the single set A."""
    (a_prime,), B0 = aligned_reverse_shatter(G, [A], B, t)
    return a_prime, B0


def aligned_reverse_shatter(G: Graph, A_list, B: int, t: int):
    """Shared-labeling extension: each A_j -> B, |B| >= 2^(rt); produce
    (A'_1..A'_r, B') with B' -> union of the A'_j and |A'_j| = t.

    The 2^(rt) lowest vertices of B are labeled with the binary hypercube in
    index order; A'_j collects A_j's realizers of the t origin-containing
    faces jt .. jt + t - 1.
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
    witnesses = []
    for A in A_list:
        w = shatters(G, A, B)
        if w is None:
            raise DomainError("every A_j must shatter B")
        witnesses.append(w)
    B0 = bottom_bits(B, 1 << (r * t))
    b_verts = list(bits(B0))
    faces = []
    for i in range(r * t):
        face = 0
        for label, b in enumerate(b_verts):
            if not label >> i & 1:
                face |= 1 << b
        faces.append(face)
    out = []
    union = 0
    for j in range(r):
        a_prime = 0
        for i in range(j * t, (j + 1) * t):
            a_prime |= 1 << witnesses[j][faces[i]]
        out.append(a_prime)
        union |= a_prime
    check = shatters(G, B0, union)
    assert check is not None, "aligned reverse construction failed its own check"
    return out, B0


# ---------------------------------------------------------------------------
# starred-universal embedding by direct search


def find_universal_star_embedding(G: Graph, r: int, k: int):
    """Search G for an induced starred universal graph, over every layer
    pattern in lexicographic order.  Exhaustive induced-subgraph search
    stands in for the Ramsey recursion, whose constants are out of desk
    range; absence is a valid answer."""
    sizes = universal_layer_sizes(r, k)
    if len(sizes) < r or sum(sizes) > 12:
        raise DomainError("starred universal graph larger than the search cap (12)")
    for v in product((0, 1), repeat=r):
        target = construct_universal_star(r, k, v)
        if target.graph.n > G.n:
            continue
        phi = contains_induced(G, target.graph)
        if phi is not None:
            return v, phi
    return None
