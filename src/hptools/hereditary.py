"""Hereditary properties given by finitely many forbidden induced subgraphs:
exact speeds, mixed-partition classes H(r,v), and the colouring number.

Only finite forbidden families are representable.  Whether a finite basis
captures the intended property is the caller's modeling choice.
"""

from __future__ import annotations

from math import comb, log2
from typing import NamedTuple

from .errors import DomainError
from .graphs import (Graph, IsomorphismClasses, MAX_ENUM_VERTICES, _extend,
                     _pin_plan, bits, contains_induced, enumerate_labeled,
                     graph6_decode, graph_from_lower, grow_rows)

MAX_FORBIDDEN_ORDER = 10
MAX_PATTERN_LENGTH = 8


class PropertySpec(NamedTuple("_PropertySpecRecord",
                              [("forbidden", tuple[Graph, ...])])):
    """A minimal, isomorphism-deduplicated family of forbidden induced subgraphs.

    ``tree`` is the generation tree that ``enumerate_property`` and
    ``class_levels`` grow under the spec: the table of every prefix a walk
    meets on at most 6 vertices, so at most 33,868 tables.  It is no field:
    each spec starts with its own empty tree, which takes no part in
    equality, hashing or the repr."""

    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace checks too

    def __new__(cls, forbidden: tuple[Graph, ...]):
        for i, F in enumerate(forbidden):
            if not 1 <= F.n <= MAX_FORBIDDEN_ORDER:
                raise DomainError(
                    f"forbidden graphs must have 1..{MAX_FORBIDDEN_ORDER} vertices")
            for j, K in enumerate(forbidden):
                if i != j and contains_induced(F, K) is not None:
                    raise DomainError("forbidden family is not minimal")
        spec = tuple.__new__(cls, (forbidden,))
        spec.__dict__["tree"] = {}
        return spec

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    @classmethod
    def from_graphs(cls, graphs) -> "PropertySpec":
        kept: list[Graph] = []
        for F in sorted(graphs, key=lambda g: (g.n, g.edge_count())):
            if not 1 <= F.n <= MAX_FORBIDDEN_ORDER:
                raise DomainError(
                    f"forbidden graphs must have 1..{MAX_FORBIDDEN_ORDER} vertices")
            if any(contains_induced(F, K) is not None for K in kept):
                continue  # redundant: some kept graph already forbids F's hosts
            kept.append(F)
        return cls(tuple(kept))


def load_property(path) -> PropertySpec:
    """Read a PropertySpec file: one graph6 line per forbidden graph."""
    with open(path, "rb") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    return PropertySpec.from_graphs([graph6_decode(ln) for ln in lines])


# ---------------------------------------------------------------------------
# speeds


class SpeedRow(NamedTuple):
    n: int
    count: int
    entropy: float


def _entropy(n: int, count: int) -> float:
    if n < 2 or count <= 0:
        return 0.0
    return log2(count) / comb(n, 2)


def _marked(pairs, v: int) -> bytearray:
    """One flag per row r in 0..2^v - 1, set when r & S == P for some pair
    (S, P) of ``pairs``."""
    full = (1 << v) - 1
    marked = bytearray(1 << v)
    for S, P in pairs:
        free = t = full & ~S
        while True:  # every r with r & S == P is P plus a subset of ~S
            marked[P | t] = 1
            if not t:
                break
            t = (t - 1) & free
    return marked


def _kept_rows(forbidden, v: int, rows) -> list[int]:
    """The backward rows, ascending, that vertex v may take over the prefix
    rows 0..v-1 without completing a forbidden graph through v.

    Row r completes F with v on x exactly when some induced copy of F - x
    in the prefix, on vertex set S, has r & S equal to the image of x's
    neighbours.  An automorphism of F carries x to any vertex of its orbit,
    so one x per orbit of ``_pin_plan`` covers every placement of v.
    """
    full = (1 << v) - 1
    marks = set()
    for F in forbidden:
        for x, *rest in _pin_plan(F):
            nbrs = [h for h in rest if F.adj[x] >> h & 1]

            def found(image):
                S = P = 0
                for h in rest:
                    S |= 1 << image[h]
                for h in nbrs:
                    P |= 1 << image[h]
                marks.add((S, P))
                return False

            _extend(rest, [full] * len(rest), F.adj, rows, [-1] * F.n, found)
    marked = _marked(marks, v)
    return [r for r in range(1 << v) if not marked[r]]


def _kept(spec: PropertySpec, v: int, rows) -> bytes:
    """The table of ``_kept_rows`` for the prefix rows 0..v-1, read from
    ``spec.tree`` and searched only when missing there."""
    prefix = bytes(rows[:v])  # a copy: ``rows`` may be live
    kept = spec.tree.get(prefix)
    if kept is None:
        kept = bytes(_kept_rows(spec.forbidden, v, rows))
        if v <= MAX_ENUM_VERTICES - 2:
            spec.tree[prefix] = kept
    return kept


def enumerate_property(spec: PropertySpec, n: int):
    """Stream the graphs of the property on [n] in canonical order.

    The row odometer of ``enumerate_labeled``, pruned: hereditary closure
    means a forbidden subgraph in a prefix kills every extension, so pruned
    branches lose nothing.  Vertex v takes only the rows that ``_kept_rows``
    leaves after one search of rows 0..v-1.  Emits exactly the graphs of
    ``enumerate_labeled(n)`` with no forbidden induced subgraph, in the same
    ascending edge-bitmask order.

    Every member of P_n is a member of P_{n-1} plus one vertex, so every
    walk of a property goes down one tree.  ``spec.tree`` maps the rows of
    a prefix to its table, both as ``bytes`` (rows are below 2^7), and a
    walk searches no prefix it finds there.  Every walk stores the table of
    each prefix on at most ``MAX_ENUM_VERTICES - 2`` = 6 vertices and never
    one on 7, which only an n = 8 walk meets, up to 1.7 million of them.
    So the tree holds at most one table per member of P_0..P_6, 33,868
    when every graph is a member.
    """
    if n < 0:
        raise DomainError(f"n must lie in 0..{MAX_ENUM_VERTICES}")
    if n > MAX_ENUM_VERTICES:
        raise DomainError(f"enumeration capped at n <= {MAX_ENUM_VERTICES}")
    for rows in grow_rows(n, lambda v, rows: _kept(spec, v, rows)):
        yield Graph._trusted(n, tuple(rows))


def class_levels(spec: PropertySpec):
    """The isomorphism classes of P_0, P_1, ..., P_8 in turn, each level a
    list of (founder, size) pairs: size labeled members of P_n fall in the
    founder's class.

    Level n looks up M + R, vertex n-1 joined to M by the backward row R,
    for each founder M of level n-1 in order and each R of M's table in
    ascending order; the first graph of a class founds it.  These are
    labeled members of P_n in ascending edge-bitmask order.  A least-bitmask
    labeling's prefix on 0..n-2 is least in its own class too, so it is a
    founder, and each founder is its class's least-bitmask labeling.

    An isomorphism from M onto any labeled member P of its class carries
    M's table onto P's, so each R puts |M's class| labeled members of P_n
    into the class of M + R, and the sizes are exact without any
    automorphism group.
    """
    level = [(Graph(0, ()), 1)]
    yield level
    for n in range(1, MAX_ENUM_VERTICES + 1):
        classes, founders, sizes = IsomorphismClasses(), [], []
        for M, size in level:
            lower = [row & (1 << u) - 1 for u, row in enumerate(M.adj)]
            for R in _kept(spec, n - 1, M.adj):
                G = graph_from_lower(n, lower + [R])
                i = classes.index(G)
                if i == len(sizes):
                    founders.append(G)
                    sizes.append(0)
                sizes[i] += size
        level = list(zip(founders, sizes))
        yield level


def speed(spec: PropertySpec, n: int) -> SpeedRow:
    """Exact |P_n| by filtered enumeration."""
    count = sum(1 for _ in enumerate_property(spec, n))
    return SpeedRow(n, count, _entropy(n, count))


# ---------------------------------------------------------------------------
# mixed partitions H(r,v) and the colouring number


def _pattern(v) -> tuple[int, ...]:
    """The pattern v as a tuple, refused unless it has 1..MAX_PATTERN_LENGTH
    entries, each 0 or 1."""
    v = tuple(v)
    if not 1 <= len(v) <= MAX_PATTERN_LENGTH:
        raise DomainError(f"pattern length must be 1..{MAX_PATTERN_LENGTH}")
    if any(b not in (0, 1) for b in v):
        raise DomainError("pattern entries must be 0 or 1")
    return tuple(map(int, v))


def _hrv_partitions(rows, v):
    """Every (len(v), v)-partition of the graph on ``rows``, as one live list
    of part masks that the caller must not keep: part j a clique iff
    v[j] = 1 and independent otherwise, empty parts allowed.  Fresh parts
    with the same pattern bit are interchangeable, so each partition comes
    once up to relabeling them."""
    n = len(rows)
    members = [0] * len(v)

    def bt(u: int):
        if u == n:
            yield members
            return
        row = rows[u]
        tried_fresh = set()
        for j, b in enumerate(v):
            m = members[j]
            if not m:
                if b in tried_fresh:
                    continue
                tried_fresh.add(b)
            elif (row & m != m) if b else row & m:
                continue
            members[j] = m | 1 << u
            yield from bt(u + 1)
            members[j] = m

    return bt(0)


def hrv_member(G: Graph, v):
    """A partition of V(G) into len(v) parts, part j a clique iff v[j] = 1
    and independent otherwise, or None.  Exhaustive backtracking; empty
    parts are allowed.  Returns the part label of each vertex."""
    parts = next(_hrv_partitions(G.adj, _pattern(v)), None)
    if parts is None:
        return None
    assign = [-1] * G.n
    for j, m in enumerate(parts):
        for u in bits(m):
            assign[u] = j
    return tuple(assign)


def _hrv_extensions(rows, v):
    """One flag per backward row R of a new vertex k = len(rows), set when
    joining k by R extends some (r,v)-partition of the graph on ``rows``;
    None when every R does.

    R extends a partition exactly when the partition has an empty part, R
    contains one of its clique parts m (R & m == m) or R misses one of its
    independent parts m (R & m == 0).  Below r vertices the singletons
    leave a part empty, and the first partition with an empty part ends
    the search.
    """
    if len(v) > len(rows):
        return None
    pairs = set()
    for parts in _hrv_partitions(rows, v):
        if not all(parts):
            return None
        pairs.update((m, m * b) for m, b in zip(parts, v))
    return _marked(pairs, len(rows))


def count_hrv(n: int, v) -> int:
    """Exact number of labeled graphs on [n] admitting a (len(v), v)-partition.

    Scans every labeled graph with ``enumerate_labeled``, whose order runs
    the last vertex's backward row through 0, 1, ... under each prefix on
    0..n-2.  So a graph whose last row is 0 starts a new prefix, free of
    vertex n-1: ``_hrv_extensions`` of the prefix flags the rows of n-1
    that extend one of its partitions, and each graph of the prefix admits
    a partition exactly when its last row is flagged.
    """
    v = _pattern(v)
    table = None

    def extends(G: Graph):
        nonlocal table
        row = G.adj[-1] if n else 0  # the empty graph is its own prefix
        if not row:
            table = _hrv_extensions(G.adj[:-1], v)
        return table is None or table[row]

    return sum(1 for _ in enumerate_labeled(n, extends))


class ColouringNumber(NamedTuple):
    value: int
    capped: bool
    degenerate: bool
    witness_v: tuple[int, ...] | None


def colouring_number(spec: PropertySpec, r_max: int = MAX_PATTERN_LENGTH) -> ColouringNumber:
    """Largest r <= r_max with H(r,v) inside the property for some v.

    H(r,v) is hereditary, so H(r,v) lies inside the property iff no
    forbidden graph admits an (r,v)-partition.  Only the number of ones in
    v matters, and feasibility is downward closed in r.
    """
    if not spec.forbidden:
        raise DomainError("unbounded colouring number (no forbidden graphs)")
    if not 1 <= r_max <= MAX_PATTERN_LENGTH:
        raise DomainError(f"r_max must lie in 1..{MAX_PATTERN_LENGTH}")
    patterns = valid_hrv_patterns(spec, r_max)
    if not patterns:
        return ColouringNumber(0, False, True, None)
    value = len(patterns[-1])
    witness = next(v for v in patterns if len(v) == value)
    return ColouringNumber(value, value >= r_max, False, witness)


def valid_hrv_patterns(spec: PropertySpec, r_max: int = MAX_PATTERN_LENGTH):
    """Every pattern v, up to permutation and by length r = len(v) up to
    r_max, with H(r,v) inside the property."""
    out = []
    for r in range(1, r_max + 1):
        at_r = [v for ones in range(r + 1)
                for v in [(1,) * ones + (0,) * (r - ones)]
                if all(hrv_member(F, v) is None for F in spec.forbidden)]
        if not at_r:
            break  # feasibility is downward closed in r
        out += at_r
    return out


# ---------------------------------------------------------------------------
# the speed envelope of the structure theorem


def abt_bounds(n: int, r: int, eps: float) -> tuple[float, float]:
    """log2 envelope ((1-1/r) n^2/2, same + n^(2-eps)); pure arithmetic."""
    if r < 1:
        raise DomainError("r must be at least 1")
    if not 0 < eps <= 1:
        raise DomainError("eps must lie in (0, 1]")
    lower = (1 - 1 / r) * n * n / 2
    return lower, lower + n ** (2 - eps)
