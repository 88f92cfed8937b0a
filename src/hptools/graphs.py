"""Labeled simple graphs on at most 64 vertices, stored as per-vertex bit rows.

Conventions used throughout the package:

* vertices are ``0 .. n-1``; a vertex set is an ``int`` bitmask,
* ``adj[i]`` is the neighbourhood of vertex ``i`` as a bitmask,
* vertex v's *backward row* is ``adj[v] & (2^v - 1)``, its neighbours
  below v.  A producer of new graphs writes backward rows only and hands
  them to ``graph_from_lower``, which alone makes them symmetric,
* on n vertices, edge ``(u, v)`` with ``u < v`` occupies bit
  ``C(n,2) - C(v+1,2) + u`` of the *edge bitmask*: vertex v's backward
  row forms one block, earlier vertices' blocks more significant.
  Enumeration order is ascending edge bitmask, which coincides with
  growing the graph one vertex at a time,
* a partition of the vertex set into r parts is a tuple of part indices
  (``0``-based), one per vertex.
"""

from __future__ import annotations

import random
from binascii import a2b_base64, b2a_base64
from functools import lru_cache
from typing import NamedTuple

from .errors import DomainError

MAX_VERTICES = 64

# ---------------------------------------------------------------------------
# bitmask helpers


def bits(mask: int):
    """Iterate over the set bit positions of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def k_submasks(mask: int, k: int):
    """All k-bit submasks of ``mask`` in colex (ascending numeric) order."""
    positions = list(bits(mask))
    g = len(positions)
    if k > g:
        return
    if k == 0:
        yield 0
        return
    c = (1 << k) - 1
    top = 1 << g
    while c < top:
        yield sum(1 << positions[i] for i in bits(c))
        # Gosper's hack: next integer with the same popcount
        u = c & -c
        v = c + u
        c = v + (((v ^ c) // u) >> 2)


def part_masks(labels, r: int | None = None) -> list[int]:
    """Per-part vertex masks of a labeling, at most ``MAX_VERTICES`` parts."""
    if r is None:
        r = (max(labels) + 1) if labels else 0
    if r > MAX_VERTICES:
        raise DomainError(f"r = {r} exceeds the {MAX_VERTICES}-part cap")
    if labels and not (min(labels) >= 0 and max(labels) < r):
        j = next(j for j in labels if not 0 <= j < r)
        raise DomainError(f"part label {j} out of range for r={r}")
    masks = [0] * r
    for v, j in enumerate(labels):
        masks[j] |= 1 << v
    return masks


# ---------------------------------------------------------------------------
# the Graph type


class Graph(NamedTuple("_GraphRecord", [("n", int), ("adj", tuple[int, ...])])):
    """Immutable labeled graph; ``adj[i]`` is the bit row of vertex i."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace checks too

    def __new__(cls, n: int, adj: tuple[int, ...]):
        if not 0 <= n <= MAX_VERTICES:
            raise DomainError(f"vertex count {n} outside 0..{MAX_VERTICES}")
        if len(adj) != n:
            raise DomainError("adjacency row count does not match n")
        full = (1 << n) - 1
        for i, row in enumerate(adj):
            if row & ~full:
                raise DomainError(f"row {i} has bits outside [n]")
            if row >> i & 1:
                raise DomainError(f"self-loop at vertex {i}")
        for i in range(n):
            for j in bits(adj[i]):
                if not adj[j] >> i & 1:
                    raise DomainError(f"adjacency not symmetric at ({i},{j})")
        return tuple.__new__(cls, (n, tuple(adj)))

    @classmethod
    def _trusted(cls, n: int, adj: tuple[int, ...]) -> "Graph":
        """A graph on rows that are valid by construction (n within the cap,
        one row per vertex inside [n], loopless and symmetric), built
        without the checks of ``Graph(n, adj)``.  Only producers that make
        such rows themselves call it: ``graph_from_lower``, through which
        every producer of new rows goes, including the input paths, and the
        relabeling or enumeration of rows that are symmetric already."""
        return tuple.__new__(cls, (n, adj))

    @property
    def vertex_mask(self) -> int:
        return (1 << self.n) - 1

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.adj) // 2

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for v in range(self.n) for u in bits(self.adj[v]) if u < v]

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.edges()})"


def graph_from_lower(n: int, lower) -> Graph:
    """The graph on n vertices whose vertex v has the backward row
    ``lower[v]``; the caller guarantees n rows, each below 2^v.  The bits
    of each backward row set the forward halves of the earlier rows."""
    if not 0 <= n <= MAX_VERTICES:
        raise DomainError(f"vertex count {n} outside 0..{MAX_VERTICES}")
    adj = list(lower)
    for v, row in enumerate(lower):
        bit = 1 << v
        while row:
            low = row & -row
            adj[low.bit_length() - 1] |= bit
            row ^= low
    return Graph._trusted(n, tuple(adj))


def graph_from_edges(n: int, edges) -> Graph:
    """Build a graph from an edge list; duplicate edges are accepted idempotently."""
    if not 0 <= n <= MAX_VERTICES:
        raise DomainError(f"vertex count {n} outside 0..{MAX_VERTICES}")
    lower = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise DomainError(f"edge ({u},{v}) endpoint out of range")
        if u == v:
            raise DomainError(f"self-loop at vertex {u}")
        lower[max(u, v)] |= 1 << min(u, v)
    return graph_from_lower(n, lower)


def induced_subgraph(G: Graph, S: int) -> Graph:
    """The subgraph induced by vertex mask S, relabeled by increasing index."""
    if S & ~G.vertex_mask:
        raise DomainError("vertex set not contained in the graph")
    verts = list(bits(S))
    index = {v: i for i, v in enumerate(verts)}
    adj = [0] * len(verts)
    for v in verts:
        for u in bits(G.adj[v] & S):
            adj[index[v]] |= 1 << index[u]
    return Graph._trusted(len(verts), tuple(adj))


# ---------------------------------------------------------------------------
# induced-subgraph search


def _extend(seq, masks, hadj, adj, image, found=None) -> bool:
    """Place pattern vertices ``seq`` (rows ``hadj``) into the host rows
    ``adj``: seq[0] goes onto a vertex of masks[0], masks[i] serves seq[i].
    Fills ``image`` and returns True on the first induced copy found; with
    ``found``, each copy is passed to ``found(image)`` instead, and the
    search stops at the first call that returns True."""
    if not seq:
        return found is None or found(image)
    h, later = seq[0], seq[1:]
    hrow, cand, rest = hadj[h], masks[0], masks[1:]
    while cand:
        low = cand & -cand
        cand ^= low
        g = low.bit_length() - 1
        row = adj[g]
        anti = ~(row | low)
        nxt = []
        for m, h2 in zip(rest, later):
            m &= row if hrow >> h2 & 1 else anti
            if not m:
                break
            nxt.append(m)
        else:
            image[h] = g
            if _extend(later, nxt, hadj, adj, image, found):
                return True
    return False


def _degree_order(H: Graph) -> list[int]:
    """H's vertices by descending degree, ties in vertex order."""
    return sorted(range(H.n), key=lambda h: -H.adj[h].bit_count())


@lru_cache(maxsize=256)
def _pin_plan(H: Graph) -> tuple:
    """One entry per Aut(H) orbit: (h, rest of the degree order) for each
    orbit's first vertex h in that order.  b joins a's orbit when H has an
    induced copy in itself with a on b."""
    order = _degree_order(H)
    seqs = []
    for b in order:
        head = [1 << b] + [(1 << H.n) - 1] * (H.n - 1)
        if not any(_extend(seq, head, H.adj, H.adj, [-1] * H.n) for seq in seqs):
            seqs.append((b, *(x for x in order if x != b)))
    return tuple(seqs)


def contains_induced(G: Graph, H: Graph):
    """Find an injective map phi with uv in E(H) iff phi(u)phi(v) in E(G).

    Returns the map as a tuple (phi[h] = image vertex) or None.

    Bitset backtracking: pattern vertices are placed by descending degree
    (stable), each onto the candidates of its mask in ascending order, and
    placing h at g narrows every later mask to the neighbours or the
    non-neighbours of g as H requires.  A branch ends as soon as a mask
    empties, which cuts only dead branches, so the first witness in this
    order is returned and results are deterministic.
    """
    if H.n > G.n:
        return None
    image = [-1] * H.n
    found = _extend(_degree_order(H), [G.vertex_mask] * H.n, H.adj, G.adj, image)
    return tuple(image) if found else None


class IsomorphismClasses:
    """The isomorphism classes of the graphs looked up so far, numbered
    0, 1, ... in order of first appearance.  The first graph looked up of a
    class is its representative.

    Each vertex is labeled by its degree and the multiset of its neighbours'
    degrees, which every isomorphism preserves.  A lookup keeps the
    representatives with the graph's multiset of labels, then asks each for
    an induced copy in the graph that puts every vertex on a vertex of its
    own label, rarest label first: on equal order an induced copy is an
    isomorphism."""

    def __init__(self):
        self._buckets: dict[tuple, list[tuple[Graph, list, list, int]]] = {}
        self.count = 0

    def index(self, G: Graph) -> int:
        """The number of G's class; a graph of a new class founds it."""
        deg = [row.bit_count() for row in G.adj]
        # base 64: digit 0 holds the degree, digit d > 0 the degree-d neighbours
        weight = [1 << 6 * d for d in deg]
        labels = []
        for label, row in zip(deg, G.adj):
            while row:
                low = row & -row
                label += weight[low.bit_length() - 1]
                row ^= low
            labels.append(label)
        where: dict[int, int] = {}
        for v, label in enumerate(labels):
            where[label] = where.get(label, 0) | 1 << v
        bucket = self._buckets.setdefault(tuple(sorted(labels)), [])
        image = [-1] * G.n
        for rep, seq, seq_labels, i in bucket:
            if _extend(seq, [where[label] for label in seq_labels], rep.adj,
                       G.adj, image):
                return i
        seq = sorted(range(G.n), key=lambda v: where[labels[v]].bit_count())
        bucket.append((G, seq, [labels[v] for v in seq], self.count))
        self.count += 1
        return self.count - 1


# ---------------------------------------------------------------------------
# labeled enumeration

MAX_ENUM_VERTICES = 8


def grow_rows(n: int, keep=None):
    """Every loopless symmetric list of n bit rows, in ascending edge-bitmask
    order, yielded as one live list that the caller must not keep.

    An odometer over rows: vertex v's backward row takes the values
    0 .. 2^v - 1 in turn, and the bits it sets in the rows of earlier
    vertices are set and undone in place.  Vertex 1's block is the most
    significant, so the order is ascending by construction.  With ``keep``,
    vertex v's backward row takes only the values that ``keep(v, rows)``
    returns, which must be ascending.  It is called once per prefix, with
    rows 0..v-1 set and vertex v not yet joined to any of them.

    One flat loop: ``values`` holds the iterators of the vertices below the
    last, and the last vertex's rows are yielded in a plain inner loop.
    """
    rows = [0] * n
    if not n:
        yield rows
        return
    last = n - 1
    values = []  # values[u]: vertex u's remaining backward rows
    while True:
        v = len(values)
        if v < last:
            values.append(iter(range(1 << v) if keep is None else keep(v, rows)))
        else:
            bit = 1 << v
            prev = 0
            for row in range(1 << v) if keep is None else keep(v, rows):
                flip = row ^ prev  # toggle bit v in the rows whose edge changed
                while flip:
                    low = flip & -flip
                    rows[low.bit_length() - 1] ^= bit
                    flip ^= low
                rows[v] = prev = row
                yield rows
            for u in bits(prev):
                rows[u] ^= bit
            rows[v] = 0
        while values:  # advance the deepest vertex left with a row to take
            v = len(values) - 1
            row = next(values[v], None)
            for u in bits(rows[v] if row is None else row ^ rows[v]):
                rows[u] ^= 1 << v
            if row is not None:
                rows[v] = row
                break
            rows[v] = 0
            values.pop()
        else:
            return


def enumerate_labeled(n: int, predicate=None):
    """Stream every labeled graph on [n] passing ``predicate``, ascending edge
    bitmask: ``predicate`` sees every graph in that order, and under each
    prefix on 0..n-2 the last vertex's backward row runs 0, 1, ...,
    2^(n-1) - 1."""
    if not 0 <= n <= MAX_ENUM_VERTICES:
        raise DomainError(f"full enumeration capped at n <= {MAX_ENUM_VERTICES}")
    for rows in grow_rows(n):
        G = Graph._trusted(n, tuple(rows))
        if predicate is None or predicate(G):
            yield G


def random_graph(n: int, p: float, seed=None) -> Graph:
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    return graph_from_lower(n, [sum(1 << u for u in range(v) if rng.random() < p)
                                for v in range(n)])


# ---------------------------------------------------------------------------
# graph6 and edge-list formats


# graph6's 6-bit groups, bytes 63 + group, are base64 digits in another alphabet;
# with each byte's bits reversed, bit k of a little-endian integer is vector bit k
_BASE64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_TO_BASE64 = bytes.maketrans(bytes(range(63, 127)), _BASE64)
_FROM_BASE64 = bytes.maketrans(_BASE64, bytes(range(63, 127)))
_REVERSED = bytes(int(f"{i:08b}"[::-1], 2) for i in range(256))


def graph6_encode(G: Graph) -> bytes:
    """Encode per the published graph6 format (bit-exact, zero padding)."""
    n = G.n
    if n <= 62:
        head = bytes([n + 63])
    else:
        head = bytes([126, 63 + (n >> 12 & 63), 63 + (n >> 6 & 63), 63 + (n & 63)])
    m = n * (n - 1) // 2
    x = start = 0
    for v in range(1, n):
        x |= (G.adj[v] & (1 << v) - 1) << start  # edges (u, v), u < v
        start += v
    groups = (m + 5) // 6
    vector = x.to_bytes((groups + 3) // 4 * 3, "little").translate(_REVERSED)
    return head + b2a_base64(vector, newline=False)[:groups].translate(_FROM_BASE64)


def graph6_decode(data: bytes | str) -> Graph:
    if isinstance(data, str):
        if not data.isascii():
            raise DomainError("graph6 data contains out-of-range bytes")
        data = data.encode("ascii")
    data = data.strip()
    if not data:
        raise DomainError("empty graph6 string")
    if min(data) < 63 or max(data) > 126:
        raise DomainError("graph6 data contains out-of-range bytes")
    if data[0] == 126:
        if len(data) >= 2 and data[1] == 126:
            raise DomainError("graph6 order exceeds the 64-vertex cap")
        if len(data) < 4:
            raise DomainError("malformed graph6 header")
        n = (data[1] - 63) << 12 | (data[2] - 63) << 6 | (data[3] - 63)
        body = data[4:]
    else:
        n = data[0] - 63
        body = data[1:]
    if n > MAX_VERTICES:
        raise DomainError(f"graph6 order {n} exceeds the {MAX_VERTICES}-vertex cap")
    m = n * (n - 1) // 2
    expect = (m + 5) // 6
    if len(body) != expect:
        raise DomainError(f"graph6 bit vector truncated or overlong "
                          f"({len(body)} data bytes, expected {expect})")
    vector = a2b_base64(body.translate(_TO_BASE64) + b"A" * (-expect % 4))
    x = int.from_bytes(vector.translate(_REVERSED), "little")
    if x >> m:
        raise DomainError("graph6 padding bits are not zero")
    # vertex v's edges (u, v), u < v, start at bit C(v, 2)
    return graph_from_lower(n, [x >> (v * (v - 1) >> 1) & (1 << v) - 1
                                for v in range(n)])


def edgelist_decode(text: str) -> Graph:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise DomainError("empty edge-list input")
    try:
        n = int(lines[0])
        edges = []
        for ln in lines[1:]:
            u, v = ln.split()
            edges.append((int(u), int(v)))
    except ValueError as exc:
        raise DomainError(f"malformed edge-list input: {exc}") from exc
    return graph_from_edges(n, edges)


# ---------------------------------------------------------------------------
# maximum and maximal cliques (used for bad sets and separated subsets)

MAX_EXACT_CLIQUE = 24


def max_clique(n: int, adj) -> int:
    """Exact maximum clique of the graph given by bit rows; returns a mask.

    Branch and bound with a popcount bound; comfortably fast up to
    ``MAX_EXACT_CLIQUE`` vertices, the size ``far_clique`` runs it at.
    """
    best_mask = 0
    best_size = 0

    def expand(cand: int, cur: int, size: int):
        nonlocal best_mask, best_size
        while cand:
            if size + cand.bit_count() <= best_size:
                return
            v = (cand & -cand).bit_length() - 1
            cand &= ~(1 << v)
            ncur = cur | 1 << v
            ncand = cand & adj[v]
            if size + 1 + ncand.bit_count() > best_size:
                if ncand:
                    expand(ncand, ncur, size + 1)
                elif size + 1 > best_size:
                    best_mask, best_size = ncur, size + 1

    expand((1 << n) - 1, 0, 0)  # for n >= 1 its first leaf sets best_size
    return best_mask


def greedy_maximal_clique(n: int, adj) -> int:
    """Greedy maximal clique by ascending vertex index."""
    cur = 0
    for v in range(n):
        if cur & ~adj[v]:
            continue
        cur |= 1 << v
    return cur


def far_clique(vecs, masks, cutoff: int) -> int:
    """Indices of vectors pairwise far apart: |(x_u ^ x_v) & S| >= cutoff
    for every mask S.  A maximum clique of the far-pair graph up to
    ``MAX_EXACT_CLIQUE`` vectors, a maximal one (a lower bound) above."""
    n = len(vecs)
    adj = [0] * n
    for u in range(n):
        for v in range(u):
            x = vecs[u] ^ vecs[v]
            for S in masks:
                if (x & S).bit_count() < cutoff:
                    break
            else:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return (max_clique if n <= MAX_EXACT_CLIQUE else greedy_maximal_clique)(n, adj)
