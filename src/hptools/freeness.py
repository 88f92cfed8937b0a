"""U(k)-containment and exact counting for bipartite hosts, separated
subsets, and the sparsening (distinguishing-set / clone-class) machinery.

Freeness comes in two modes.  ``whole`` follows the one-graph definition:
no disjoint A, B anywhere in the host with G[A,B] = U(k).  ``cross`` is the
nondegenerate bipartite reading: the k-set lives in the designated B part
and its 2^k realizers in the A part.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb

from .errors import DomainError, StepError
from .graphs import (MAX_VERTICES, Graph, bits, far_clique, k_submasks, mask_of,
                     part_masks)
from .universal import MAX_TRACE_GROUND, aligned_reverse_shatter, first_realizers

# sides up to 64 so the distinguishing-set harness can run its published
# parameters (c=8, n=64); rows still fit one machine word
MAX_BIP_SIDE = 64
# hosts of the U(k) search, and so of the packing and decomposition pipeline
# that ends in it; C(n,k) * n checks stay cheap at n = 40 for small k
MAX_UK_HOST = 40
MAX_UK_LEVEL = 4
MAX_COUNT_CELLS = 25


@dataclass(frozen=True)
class BipGraph:
    """Bipartite graph with parts A (size m) and B (size n); only cross
    edges are representable.  ``rows[a]`` is a's B-neighbourhood bitmask."""

    m: int
    n: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if not (0 <= self.m <= MAX_BIP_SIDE and 0 <= self.n <= MAX_BIP_SIDE):
            raise DomainError(f"bipartite sides capped at {MAX_BIP_SIDE}")
        if len(self.rows) != self.m:
            raise DomainError("row count does not match m")
        full = (1 << self.n) - 1
        for row in self.rows:
            if row & ~full:
                raise DomainError("row has bits outside the B side")

    def cols(self) -> tuple[int, ...]:
        out = [0] * self.n
        for a, row in enumerate(self.rows):
            for b in bits(row):
                out[b] |= 1 << a
        return tuple(out)

    def to_graph(self) -> Graph:
        """The host graph on m + n vertices (A first, then B)."""
        adj = [0] * (self.m + self.n)
        for a, row in enumerate(self.rows):
            for b in bits(row):
                adj[a] |= 1 << (self.m + b)
                adj[self.m + b] |= 1 << a
        return Graph(self.m + self.n, tuple(adj))


def bipgraph_encode(bg: BipGraph) -> str:
    lines = [f"{bg.m} {bg.n}"]
    for row in bg.rows:
        lines.append("".join("1" if row >> b & 1 else "0" for b in range(bg.n)))
    return "\n".join(lines) + "\n"


def bipgraph_decode(text: str) -> BipGraph:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise DomainError("empty bipartite-graph input")
    try:
        m, n = map(int, lines[0].split())
    except ValueError as exc:
        raise DomainError(f"malformed header: {exc}") from exc
    if len(lines) != m + 1:
        raise DomainError(f"expected {m} rows, found {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        if len(ln) != n or set(ln) - {"0", "1"}:
            raise DomainError(f"malformed row {ln!r}")
        rows.append(sum(1 << b for b, ch in enumerate(ln) if ch == "1"))
    return BipGraph(m, n, tuple(rows))


def random_bipgraph(m: int, n: int, p: float, seed=None) -> BipGraph:
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    rows = tuple(sum(1 << b for b in range(n) if rng.random() < p) for _ in range(m))
    return BipGraph(m, n, rows)


# ---------------------------------------------------------------------------
# U(k) copies


def find_uk_copy(G: Graph, k: int, parts: tuple[int, int] | None = None):
    """First U(k) copy (A, B) in canonical order, or None.

    Whole-graph mode scans every k-subset B of V(G) (ascending mask order)
    and asks whether the remaining vertices realize all 2^k traces on B.
    Cross-only mode restricts B to ``parts[1]`` and the realizers to
    ``parts[0]``.
    """
    if G.n > MAX_UK_HOST:
        raise DomainError(f"exhaustive search capped at {MAX_UK_HOST} vertices")
    if not 1 <= k <= MAX_UK_LEVEL:
        raise DomainError(f"universal level capped at {MAX_UK_LEVEL}")
    if parts is not None:
        a_pool, b_pool = parts
        if a_pool & b_pool:
            raise DomainError("cross-only parts must be disjoint")
    else:
        a_pool = b_pool = G.vertex_mask
    need = 1 << k
    if G.n < need + k:
        return None
    for B in k_submasks(b_pool, k):
        pool = a_pool & ~B
        if pool.bit_count() < need:
            continue
        realizers = first_realizers(G.adj, pool, B, need)
        if len(realizers) == need:
            return mask_of(realizers.values()), B
    return None


def is_uk_free(G: Graph, k: int, parts=None) -> bool:
    return find_uk_copy(G, k, parts) is None


# ---------------------------------------------------------------------------
# exact counting of U(k)-free bipartite graphs


def _side_coverable(rows, k: int, subsets, spare: bool = False) -> bool:
    """Can some k-subset of this side have every trace pattern realized by
    the rows of the opposite side?  With ``spare`` (whole mode, when this
    side has more than k vertices) the empty pattern may also come from a
    leftover vertex of this side."""
    need = 1 << k
    if len(rows) < need - spare:
        return False
    pool = (1 << len(rows)) - 1
    for sub in subsets:
        found = first_realizers(rows, pool, sub, need)
        if len(found) == need or spare and len(found) == need - 1 and 0 not in found:
            return True
    return False


def count_uk_free_bipartite(m: int, n: int, k: int, mode: str = "whole") -> int:
    """Exact number of cross-edge patterns on A (size m) x B (size n) whose
    host is U(k)-free in the chosen mode.

    Freeness depends only on the multiset of rows, so each row multiset is
    tested once and counted with its m!/prod(mult!) labeled orderings.  A
    mixed k-set (meeting both sides) can never be fully traced in whole
    mode: the all-of-S pattern would need a vertex adjacent to vertices of
    both sides, impossible across a bipartition.  So only pure one-side
    k-sets matter.
    """
    if mode not in ("whole", "cross"):
        raise DomainError("mode must be 'whole' or 'cross'")
    if m * n > MAX_COUNT_CELLS:
        raise DomainError(f"enumeration capped at m*n <= {MAX_COUNT_CELLS}")
    if not 1 <= k <= MAX_UK_LEVEL:
        raise DomainError(f"universal level capped at {MAX_UK_LEVEL}")
    bsubs = list(k_submasks((1 << n) - 1, k))
    asubs = list(k_submasks((1 << m) - 1, k))
    count = 0
    for rows in combinations_with_replacement(range(1 << n), m):
        if mode == "cross":
            free = not _side_coverable(rows, k, bsubs)
        else:
            cols = [0] * n
            for a, row in enumerate(rows):
                for b in bits(row):
                    cols[b] |= 1 << a
            free = not (_side_coverable(rows, k, bsubs, n > k)
                        or _side_coverable(cols, k, asubs, m > k))
        if free:
            count += _orderings(rows)
    return count


def _orderings(items) -> int:
    """Number of distinct orderings of a multiset: len! / prod(mult!)."""
    count = math.factorial(len(items))
    for mult in Counter(items).values():
        count //= math.factorial(mult)
    return count


# ---------------------------------------------------------------------------
# trace counts against the Sauer ceiling


@dataclass(frozen=True)
class BlockTraceReport:
    block: int
    size: int
    trace_count: int
    sauer_ceiling: int
    loose_ceiling: int


def trace_count_check(bg: BipGraph, blocks, k: int):
    """Per-block distinct-trace counts of the A side, with the exact Sauer
    ceiling sum_{i<k} C(|B_j|, i) asserted and the looser k*C(|B_j|, k-1)
    ceiling reported alongside.

    The host must be U(k)-free in cross mode, which is verified first; a
    ceiling violation would also prove it is not, and raises as well.
    """
    blocks = list(blocks)
    union = 0
    for blk in blocks:
        if blk & ~((1 << bg.n) - 1):
            raise DomainError("block not contained in the B side")
        if blk & union:
            raise DomainError("blocks overlap")
        union |= blk
    if union != (1 << bg.n) - 1:
        raise DomainError("blocks do not cover the B side")
    if _side_coverable(bg.rows, k, list(k_submasks((1 << bg.n) - 1, k))):
        raise DomainError("host is not U(k)-free in cross mode")
    out = []
    for blk in blocks:
        size = blk.bit_count()
        traces = {row & blk for row in bg.rows}
        ceiling = sum(comb(size, i) for i in range(k))
        loose = k * comb(size, k - 1)
        if len(traces) > ceiling:
            raise DomainError(
                f"trace count {len(traces)} exceeds the Sauer ceiling {ceiling}; "
                "the host cannot be U(k)-free in cross mode")
        out.append(BlockTraceReport(blk, size, len(traces), ceiling, loose))
    return out


# ---------------------------------------------------------------------------
# non-shattering attachments and sparse bipartite counts


def count_nonshattering_attachments(a: int, n: int) -> tuple[int, int, int]:
    """Exact count of bipartite graphs on A (size a) + B (size n) in which
    no subset of B shatters A, together with two ceilings: the printed
    (2^a - 1)^n, which undercounts by the choice of missing trace, and the
    corrected 2^a * (2^a - 1)^n.  Only the corrected one is an upper bound
    at every scale (a=1, n=2 already has exact count 2 > 1)."""
    if not (1 <= a <= 3 and 1 <= n <= 6):
        raise DomainError("caps: a <= 3 and n <= 6")
    need = 1 << a
    count = 0
    # whether B shatters A depends only on the multiset of B's traces on A
    for cols in combinations_with_replacement(range(need), n):
        if len(first_realizers(cols, (1 << n) - 1, need - 1, need)) < need:
            count += _orderings(cols)
    printed = (2 ** a - 1) ** n
    corrected = 2 ** a * printed
    return count, printed, corrected


@dataclass(frozen=True)
class SparseCount:
    count: int
    bound_log2: float
    bound: float


def count_sparse_bipartite(n: int, delta: float) -> SparseCount:
    """Exact number of bipartite graphs on n + n with at most delta^2 n^2
    edges, next to the 2^(delta n^2) ceiling.  The ceiling is asymptotic
    and is reported, never asserted (it already fails at n=4, delta=1/4)."""
    if n > 5:
        raise DomainError("side size capped at 5")
    d = Fraction(delta)
    limit = int(d * d * n * n)  # floor; edge counts are integers
    cells = n * n
    count = sum(comb(cells, j) for j in range(min(limit, cells) + 1))
    bound_log2 = float(d * n * n)
    return SparseCount(count, bound_log2, 2.0 ** bound_log2)


# ---------------------------------------------------------------------------
# separated subsets (the distance Delta(u,v) = |Gamma(u) xor Gamma(v)|)


def _side_vectors(bg: BipGraph, side: str):
    if side == "A":
        return list(bg.rows)
    if side == "B":
        return list(bg.cols())
    raise DomainError("side must be 'A' or 'B'")


def separation_profile(bg: BipGraph, side: str = "A") -> list[list[int]]:
    """Pairwise distances Delta(u,v) on one side, as a full matrix."""
    vecs = _side_vectors(bg, side)
    return [[(x ^ y).bit_count() for y in vecs] for x in vecs]


def max_separated_subset(bg: BipGraph, side: str, x: int,
                         mode: str = "exact") -> int:
    """The mask of a largest subset of one side with all pairwise distances
    >= x.

    Exact mode solves maximum clique in the auxiliary graph joining far
    pairs (side size <= 20); greedy mode returns a maximal subset, a lower
    bound.
    """
    vecs = _side_vectors(bg, side)
    if mode == "exact" and len(vecs) > 20:
        raise DomainError("exact mode capped at side size 20")
    # the single mask -1 keeps every bit of the distance
    return far_clique(vecs, (-1,), x, mode)


def separated_subset_ceiling(n: int, x: int, k: int, m: int) -> float:
    """(n/x)^(k-1) * 3^k * (ln m)^(k-1): the separated-subset ceiling for a
    U(k)-free bipartite host.  Natural logarithm throughout."""
    return (n / x) ** (k - 1) * 3 ** k * math.log(m) ** (k - 1)


# ---------------------------------------------------------------------------
# sparsening: distinguishing sets


@dataclass(frozen=True)
class DistinguishingSet:
    X: int
    attempts: int


def distinguishing_set(bg: BipGraph, u_sub: int, alpha: float, seed: int,
                       max_attempts: int = 1000) -> DistinguishingSet:
    """Random X of size ceil(p*n), p = 5 ln(c) / (alpha n), redrawn until
    the traces of ``u_sub`` on X are pairwise distinct.

    Deterministic given the seed.  When the target size reaches n the whole
    B side is used (a single deterministic attempt).
    """
    u_verts = list(bits(u_sub))
    c = len(u_verts)
    if c < 2:
        raise DomainError("need at least two vertices to distinguish")
    if any(v >= bg.m for v in u_verts):
        raise DomainError("u_sub not contained in the A side")
    n = bg.n
    alpha_f = Fraction(alpha)
    if alpha_f * n < 1:
        raise DomainError("vacuous separation: alpha * n < 1")
    thr = alpha_f * n
    rows = [bg.rows[v] for v in u_verts]
    for i in range(c):
        for j in range(i):
            if (rows[i] ^ rows[j]).bit_count() < thr:
                raise DomainError(
                    f"pair ({u_verts[j]},{u_verts[i]}) closer than alpha*n")
    size = math.ceil(5 * math.log(c) / float(alpha_f))
    if size >= n:
        X = (1 << n) - 1
        if len({row & X for row in rows}) == c:
            return DistinguishingSet(X, 1)
        raise DomainError("even the full B side does not distinguish u_sub")
    if max_attempts < 1:
        raise DomainError("max_attempts must be positive")
    rng = random.Random(seed)
    for attempt in range(1, max_attempts + 1):
        X = mask_of(rng.sample(range(n), size))
        if len({row & X for row in rows}) == c:
            return DistinguishingSet(X, attempt)
    raise DomainError(
        f"no distinguishing set of size {size} found in {max_attempts} attempts "
        f"(c={c}, n={n}, alpha={float(alpha_f):.4f})")


# ---------------------------------------------------------------------------
# sparsening: clone classes


@dataclass(frozen=True)
class SparseningOutput:
    """Core vertices B' plus, per part, trace-aligned classes, and the
    smallest class size over n.

    In direction ``to-core`` (the basic loop, per part) there are 2^t
    classes per part, all members of a class sharing a neighbourhood
    pattern on B', and every class transversal shatters B'.  Direction
    ``from-core`` flips via the aligned reverse construction: t classes
    per part, |B'| = 2^(rt), and B' shatters every transversal.
    """

    b_prime: int
    classes: tuple[tuple[int, ...], ...]
    delta: float


def _part_bipgraph(G: Graph, B_verts, working: int):
    cols = list(bits(working))
    index = {v: i for i, v in enumerate(cols)}
    rows = []
    for b in B_verts:
        row = 0
        for v in bits(G.adj[b] & working):
            row |= 1 << index[v]
        rows.append(row)
    return BipGraph(len(B_verts), len(cols), tuple(rows)), cols


def _sparsening_rounds(G: Graph, B_verts, part: int, t: int,
                       rng) -> list[tuple[int, int]]:
    """The basic loop on one part: distinguish, find a shattered 2^t-set,
    reverse-shatter, remove, repeat.  Returns (core_candidate, X) pairs;
    each round removes its 2^t-set X from the window, so the loop ends."""
    c = len(B_verts)
    B_mask = mask_of(B_verts)
    working = part & ~B_mask
    rounds: list[tuple[int, int]] = []
    size_needed = 1 << t
    need = 1 << size_needed
    while working.bit_count() >= size_needed:
        bip, cols = _part_bipgraph(G, B_verts, working)
        dmin = min((bip.rows[i] ^ bip.rows[j]).bit_count()
                   for i in range(c) for j in range(i))
        if dmin == 0:
            break  # remaining window no longer separates the core candidates
        try:
            ds = distinguishing_set(bip, (1 << c) - 1, Fraction(dmin, bip.n),
                                    rng.randrange(1 << 30))
        except DomainError:
            break
        if ds.X.bit_count() > MAX_TRACE_GROUND:  # the cap on exhaustive trace grounds
            raise DomainError(f"ground set larger than {MAX_TRACE_GROUND}")
        # the first 2^t-subset of X (colex order) that the core candidates
        # shatter, with its realizers
        for X_star in k_submasks(mask_of(cols[i] for i in bits(ds.X)), size_needed):
            realizers = first_realizers(G.adj, B_mask, X_star, need)
            if len(realizers) == need:
                break
        else:
            break
        (core,), X_used = aligned_reverse_shatter(
            G, [mask_of(realizers.values())], X_star, t)
        rounds.append((core, X_used))
        working &= ~X_used
    return rounds


def extract_clone_classes(G: Graph, parts, B: int, alpha: float, t: int,
                          seed: int = 0,
                          direction: str = "to-core") -> SparseningOutput:
    """Desk-scale clone-class pipeline over a pairwise-separated core set.

    Repeatedly (i) draws a distinguishing X inside a part, (ii) finds a
    shattered set of the traces on X by exhaustive search, (iii) flips it
    via the reverse construction and removes it.  Candidate cores repeated
    across rounds are pigeonholed into one core valid for every part, and
    the removed sets are regrouped into trace-aligned classes.

    ``to-core``: every class transversal shatters B' (2^t classes/part).
    ``from-core``: finishes with the aligned reverse construction so B'
    shatters every transversal (t classes/part, |B'| = 2^(rt)).

    Thresholds are desk-scale: the loop needs |B| >= 2^(2^t) distinct trace
    patterns (for ``from-core``, with t replaced by 2^(rt) internally); the
    tower-type constants of the source analysis are far out of reach and
    structured StepErrors name whichever stage starves.
    """
    if len(parts) != G.n:
        raise DomainError("parts do not match the graph")
    if direction not in ("to-core", "from-core"):
        raise DomainError("direction must be 'to-core' or 'from-core'")
    if t < 1:
        raise DomainError("t must be at least 1")
    pmasks = part_masks(parts)
    r = len(pmasks)
    n = G.n
    B_verts = list(bits(B))
    c = len(B_verts)
    alpha_f = Fraction(alpha)

    # separation precondition: every core pair far apart within every part
    for j, S in enumerate(pmasks):
        for i2 in range(c):
            for i1 in range(i2):
                d = ((G.adj[B_verts[i1]] ^ G.adj[B_verts[i2]]) & S).bit_count()
                if d < alpha_f * n:
                    raise DomainError(
                        f"core pair ({B_verts[i1]},{B_verts[i2]}) closer than "
                        f"alpha*n within part {j}")

    # |B| <= 64 < 2^(2^3), so an inner t of 3 or more always starves; decide
    # that from t and r*t before forming 2^(rt) or the tower 2^(2^t_inner)
    if (t >= 3 if direction == "to-core" else r * t >= 2):
        inner = t if direction == "to-core" else f"(2^{r * t})"
        raise StepError("core-selection",
                        f"need |B| >= 2^(2^{inner}) trace patterns, more than "
                        f"the {MAX_VERTICES}-vertex cap allows; have {c}")
    t_inner = t if direction == "to-core" else 1 << (r * t)
    if c < 1 << (1 << t_inner):
        raise StepError("core-selection",
                        f"need |B| >= 2^(2^{t_inner}) = {1 << (1 << t_inner)} "
                        f"trace patterns, have {c}")

    rng = random.Random(seed)
    per_part = []
    for j, S in enumerate(pmasks):
        rounds = _sparsening_rounds(G, B_verts, S, t_inner, rng)
        if not rounds:
            raise StepError("find-shattered",
                            f"no shattered 2^{t_inner}-set recovered in part {j}")
        per_part.append(rounds)

    # joint pigeonhole: of the cores found in every part, the most frequent
    # one overall, the lowest mask on ties
    counts = Counter(cand for rounds in per_part for cand, _ in rounds)
    shared = set(counts).intersection(*({cand for cand, _ in rounds}
                                        for rounds in per_part))
    if not shared:
        raise StepError("pigeonhole", "no core candidate recurs in every part")
    core = min(shared, key=lambda cand: (-counts[cand], cand))

    # regroup each part's removed sets by their trace on the core, so each
    # class has one trace on B', which is the core or a subset of it
    inner_classes = []
    for j, rounds in enumerate(per_part):
        merged: dict[int, int] = {}
        for cand, X_used in rounds:
            if cand == core:
                for v in bits(X_used):
                    pattern = G.adj[v] & core
                    merged[pattern] = merged.get(pattern, 0) | 1 << v
        if len(merged) != 1 << t_inner:
            raise StepError("pigeonhole",
                            f"part {j} classes cover {len(merged)} of "
                            f"{1 << t_inner} patterns on the core")
        inner_classes.append(tuple(merged[p] for p in sorted(merged)))

    if direction == "to-core":
        b_prime, classes = core, tuple(inner_classes)
    else:
        reps = [mask_of((cm & -cm).bit_length() - 1 for cm in part_classes)
                for part_classes in inner_classes]
        # asserts that B' shatters the union of the chosen representatives
        try:
            chosen, b_prime = aligned_reverse_shatter(G, reps, core, t)
        except DomainError as exc:
            raise StepError("aligned-reverse-shatter", str(exc)) from exc
        # keep the class of every chosen representative
        classes = tuple(tuple(cm for v in bits(chosen_j) for cm in part_classes
                              if cm >> v & 1)
                        for chosen_j, part_classes in zip(chosen, inner_classes))

    dmin = min(cm.bit_count() for part_classes in classes for cm in part_classes)
    return SparseningOutput(b_prime, classes, dmin / n)


# ---------------------------------------------------------------------------
# planted instances: the testing ground for the pipeline


def planted_clone_instance(r: int, t: int, copies: int):
    """Build a graph whose clone structure is planted by construction.

    The core is one vertex per subset of the 2^t trace patterns; each part
    holds ``copies`` vertices per pattern, adjacent to exactly the core
    vertices whose subset contains their pattern.  Returns (graph, parts,
    core_mask); the designated t-subset the pipeline should rediscover is
    the core's single-bit-of-pattern vertices.
    """
    npat = 1 << t
    csize = 1 << npat
    n = csize + r * npat * copies
    if n > MAX_VERTICES:
        raise DomainError("planted instance does not fit in 64 vertices")
    adj = [0] * n
    offset = csize
    for _ in range(r):
        for j in range(npat):
            for _ in range(copies):
                x = offset
                for sigma in range(csize):
                    if sigma >> j & 1:
                        adj[x] |= 1 << sigma
                        adj[sigma] |= 1 << x
                offset += 1
    part_labels = [0] * csize
    per_part = npat * copies
    for i in range(r):
        part_labels += [i] * per_part
    # core vertices live in part 0 alongside its planted classes
    labels = tuple(part_labels)
    core = (1 << csize) - 1
    return Graph(n, tuple(adj)), labels, core
