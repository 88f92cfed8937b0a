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
from fractions import Fraction
from functools import cache, reduce
from itertools import combinations, permutations
from math import comb
from operator import and_, or_
from typing import NamedTuple

from .errors import DomainError, StepError, exact
from .graphs import (MAX_VERTICES, Graph, bits, far_clique, graph_from_lower,
                     k_submasks, mask_of, part_masks)
from .universal import (MAX_TRACE_GROUND, aligned_reverse_shatter, first_realizers,
                        first_shattered, sauer_bound)

# sides up to 64 so the distinguishing-set harness can run its published
# parameters (c=8, n=64); rows still fit one machine word
MAX_BIP_SIDE = 64
# hosts of the U(k) search, and so of the packing and decomposition pipeline
# that ends in it; C(n,k) * n checks stay cheap at n = 40 for small k
MAX_UK_HOST = 40
MAX_UK_LEVEL = 4
MAX_COUNT_CELLS = 25


class BipGraph(NamedTuple("_BipGraphRecord",
                          [("m", int), ("n", int), ("rows", tuple[int, ...])])):
    """Bipartite graph with parts A (size m) and B (size n); only cross
    edges are representable.  ``rows[a]`` is a's B-neighbourhood bitmask."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace checks too

    def __new__(cls, m: int, n: int, rows: tuple[int, ...]):
        if not (0 <= m <= MAX_BIP_SIDE and 0 <= n <= MAX_BIP_SIDE):
            raise DomainError(f"bipartite sides capped at {MAX_BIP_SIDE}")
        if len(rows) != m:
            raise DomainError("row count does not match m")
        full = (1 << n) - 1
        for row in rows:
            if row & ~full:
                raise DomainError("row has bits outside the B side")
        return tuple.__new__(cls, (m, n, tuple(rows)))

    def cols(self) -> tuple[int, ...]:
        out = [0] * self.n
        for a, row in enumerate(self.rows):
            for b in bits(row):
                out[b] |= 1 << a
        return tuple(out)


def bipgraph_decode(text: str) -> BipGraph:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise DomainError("empty bipartite-graph input")
    try:
        m, n = map(int, lines[0].split())
    except ValueError as exc:
        raise DomainError(f"malformed header: {exc}") from exc
    if not (0 <= m <= MAX_BIP_SIDE and 0 <= n <= MAX_BIP_SIDE):
        raise DomainError(f"bipartite sides capped at {MAX_BIP_SIDE}")
    if n == 0:  # every row is empty, a blank line dropped above
        lines += [""] * m
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


def find_uk_copy(G: Graph, k: int):
    """First U(k) copy (A, B) in canonical order, or None: scans every
    k-subset B of V(G) (ascending mask order) and asks whether V(G) - B
    realizes all 2^k traces on B (not ``first_shattered``: the pool moves)."""
    if G.n > MAX_UK_HOST:
        raise DomainError(f"exhaustive search capped at {MAX_UK_HOST} vertices")
    if not 1 <= k <= MAX_UK_LEVEL:
        raise DomainError(f"universal level capped at {MAX_UK_LEVEL}")
    need, full = 1 << k, G.vertex_mask
    if G.n < need + k:
        return None
    for B in k_submasks(full, k):
        realizers = first_realizers(G.adj, full & ~B, B, need)
        if len(realizers) == need:
            return mask_of(realizers.values()), B
    return None


# ---------------------------------------------------------------------------
# exact counting of U(k)-free bipartite graphs


def count_uk_free_bipartite(m: int, n: int, k: int, mode: str = "whole") -> int:
    """Exact number of cross-edge patterns on A (size m) x B (size n) whose
    host is U(k)-free in the chosen mode.

    A copy is a k-set of B on which A's rows leave all 2^k traces or, in
    whole mode, a k-set of A so traced by B's columns (a mixed k-set never
    is: its full trace needs a vertex adjacent to both sides); in whole mode
    a spare vertex beside the k-set (n > k in B, m > k in A) gives the empty
    trace.  If no side has enough vertices for that, the count is 2^(mn);
    else at k = 1 it is 2^n in cross mode (a column is a U(1) unless it is
    constant) and 1 in whole mode (an edge and a spare vertex are a U(1)).
    For k >= 2 a depth-first search grows the set of distinct row values
    upward, a j-set standing for the j!S(m, j) row sequences onto it: a
    repeated row adds no trace and no column splits it from its twin.  A
    value that completes a shattered k-set is cut with its subtree (U(k) is
    hereditary), checked only on the k-sets it touches.  A set is kept only
    if lex-least under the column permutations, which keep sets free, and
    weighs n!/|Stab|.  Whole mode, symmetric, puts the smaller side in B
    (n <= 5).  In cross mode (m >= 4, n <= 6) a column flip x -> x ^ u
    permutes the traces on every k-set, so there are 2^n N_j / j free
    j-sets, N_j counting those that hold 0: only the subtree of {0}, which
    each permutation maps onto itself, is searched.  The last level is
    counted: a free m-set extends m (m - 1 in cross mode) free sets."""
    if mode not in ("whole", "cross"):
        raise DomainError("mode must be 'whole' or 'cross'")
    if m < 0 or n < 0:
        raise DomainError(f"sides must be non-negative; got m = {m}, n = {n}")
    if m * n > MAX_COUNT_CELLS:
        raise DomainError(f"enumeration capped at m*n <= {MAX_COUNT_CELLS}")
    if not 1 <= k <= MAX_UK_LEVEL:
        raise DomainError(f"universal level capped at {MAX_UK_LEVEL}")
    whole = mode == "whole"
    b_live = k <= n and m >= (1 << k) - (whole and n > k)  # rows enough for B
    a_live = whole and k <= m and n >= (1 << k) - (m > k)  # columns enough for A
    if not (b_live or a_live):
        return 1 << (m * n)
    if k == 1:
        return 1 if whole else 1 << n
    if whole and n > m:
        m, n, a_live = n, m, b_live
    values, w, ones = 1 << n, 1 << k, (1 << (1 << k)) - 1
    full = (1 << values) - 1  # masks over the 2^n row values
    has = [full // ((1 << (2 << b)) - 1) * (((1 << (1 << b)) - 1) << (1 << b))
           for b in range(n)]  # the values with bit b set
    subs = list(combinations(range(n), k))  # ``seen`` bit i*w + c: trace c on subs[i]
    add = [0] * values
    for i, S in enumerate(subs):
        bit = [1 << (i << k)]  # bit[v]: v's trace on S, for v < 2^b
        for b in range(n):
            bit += [x << (1 << S.index(b)) for x in bit] if b in S else bit
        add = list(map(or_, add, bit))
    trace_of = [[reduce(and_, (has[b] if c >> j & 1 else full ^ has[b]
                               for j, b in enumerate(S)), full)
                 for c in range(w)] for S in subs]
    memo: dict[tuple[int, ...], int] = {}  # a_kills(T) by T
    onto = []  # onto[j]: the row sequences that take exactly j given values
    for j in range(min(m, values + 1) + 1):
        onto.append(j ** m - sum(comb(j, i) * onto[i] for i in range(j)))
    scale = m if whole else math.lcm(*range(1, len(onto)))  # cross: j-sets weigh onto[j] / j
    weight = [o * scale // (1 if whole else j or 1) for j, o in enumerate(onto)]
    tail = weight[m] // (m if whole else m - 1) if m < len(onto) else 0  # per extension
    lanes, lsb, guard, order = _column_lanes(n)

    def b_kills(seen: int, fresh: int) -> int:
        """The values that would fill a block of ``seen`` hit by ``fresh``."""
        out = 0
        while fresh:  # one bit per block
            low = fresh & -fresh
            fresh ^= low
            p = low.bit_length() - 1
            block = seen >> (p >> k << k) & ones
            if block.bit_count() == w - 1:
                out |= trace_of[p >> k][(block ^ ones).bit_length() - 1]
        return out

    def a_kills(T: tuple[int, ...]) -> int:
        """The values v that make T + (v,) a shattered k-set of A: in each class
        of columns by trace on T, v has one and lacks one (a spare, for 0)."""
        if T not in memo:
            hit, miss = [0] * (w >> 1), [full if m > k else 0] + [0] * ((w >> 1) - 1)
            for b in range(n):
                P = sum((t >> b & 1) << j for j, t in enumerate(T))
                hit[P], miss[P] = hit[P] | has[b], miss[P] | full ^ has[b]
            memo[T] = reduce(and_, hit) & reduce(and_, miss)
        return memo[T]

    def grow(chosen: tuple[int, ...], images: int, seen: int, free: int, up: int) -> int:
        """Free sets that extend the kept set ``chosen`` by values of ``up``, weighted."""
        j, total, kept, ext = len(chosen) + 1, 0, 0, 0  # kept: the children
        while up:
            low = up & -up
            up ^= low  # the values above v
            v = low.bit_length() - 1
            child = images | lanes[v]  # lane i: the child's image under g_i
            diff = child ^ (child & full) * lsb | guard
            diff &= ~(diff - lsb)  # per lane, the least value in one image only
            if diff & child:
                continue  # some image is lex-smaller: not canonical
            orbit = order // (diff & guard).bit_count()
            fresh = add[v] & ~seen
            kills = b_kills(seen | fresh, fresh) | low
            for T in combinations(chosen, k - 2) if a_live else ():
                kills |= a_kills((*T, v))
            kept += orbit
            if j + 1 < m:
                total += grow((*chosen, v), child, seen | fresh, free & ~kills, up & ~kills)
            else:  # the child's extensions are the last level
                ext += orbit * (free & ~kills).bit_count()  # below v too
        return total + kept * weight[j] + ext * tail

    if whole:  # m >= 2 here, and the empty root weighs nothing
        seen = sum(1 << (i << k) for i in range(len(subs))) if n > k else 0
        free = full & ~b_kills(seen, seen)
        return grow((), 0, seen, free, free) // scale
    free = full & ~1 & ~b_kills(add[0], add[0])
    return (weight[1] + grow((0,), lanes[0], add[0], free, free)) * values // scale


@cache
def _column_lanes(n: int) -> tuple[tuple[int, ...], int, int, int]:
    """Lane i of ``lanes[v]`` (whole bytes, a guard bit above 2^n) holds bit
    g_i(v), g_i the i-th permutation of n columns, the identity first; then
    bit 0 and the guard bit of every lane, and n!: 415 KB in all at n = 6."""
    perms = list(permutations(range(n)))
    gv = [(0,) * len(perms)]  # gv[v][i] = g_i(v)
    for bit in zip(*[[1 << x for x in g] for g in perms]):  # bit[i] = g_i(column b)
        gv += [tuple(map(or_, x, bit)) for x in gv]
    one = [(1 << x).to_bytes((1 << n) // 8 + 1, "little") for x in range(1 << n)]
    lanes = tuple(int.from_bytes(b"".join(map(one.__getitem__, x)), "little") for x in gv)
    return lanes, lanes[0], lanes[0] << (1 << n), len(perms)  # g_i(0) = 0


# ---------------------------------------------------------------------------
# trace counts against the Sauer ceiling


class BlockTraceReport(NamedTuple):
    size: int
    trace_count: int
    sauer_ceiling: int
    loose_ceiling: int


def trace_count_check(bg: BipGraph, blocks, k: int):
    """Per-block distinct-trace counts of the A side, with the exact Sauer
    ceiling sum_{i<k} C(|B_j|, i) and the looser k*C(|B_j|, k-1) ceiling
    reported alongside.

    The host must be U(k)-free in cross mode, which is verified first.  No
    count then exceeds its Sauer ceiling: by Sauer-Shelah, more traces on
    B_j would shatter a k-subset of B_j, a cross U(k) copy.
    """
    if not 1 <= k <= MAX_UK_LEVEL:
        raise DomainError(f"universal level capped at {MAX_UK_LEVEL}")
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
    if first_shattered(bg.rows, (1 << bg.m) - 1, (1 << bg.n) - 1, k) is not None:
        raise DomainError("host is not U(k)-free in cross mode")
    out = []
    for blk in blocks:
        size = blk.bit_count()
        out.append(BlockTraceReport(size, len({row & blk for row in bg.rows}),
                                    sauer_bound(size, k), k * comb(size, k - 1)))
    return out


# ---------------------------------------------------------------------------
# non-shattering attachments and sparse bipartite counts


def count_nonshattering_attachments(a: int, n: int) -> tuple[int, int, int]:
    """Exact count of bipartite graphs on A (size a) + B (size n) in which
    no subset of B shatters A, together with two ceilings: the printed
    (2^a - 1)^n, which undercounts by the choice of missing trace, and the
    corrected 2^a * (2^a - 1)^n.  Only the corrected one is an upper bound
    at every scale (a=1, n=2 already has exact count 2 > 1).  The caps are
    those of the count it makes: 1 <= a <= ``MAX_UK_LEVEL``, n >= 0 and
    a*n <= ``MAX_COUNT_CELLS``."""
    if n < 0 or a * n > MAX_COUNT_CELLS:
        raise DomainError(f"need n >= 0 and a*n <= {MAX_COUNT_CELLS}; "
                          f"got a = {a}, n = {n}")
    # B shatters A when its rows realize every trace on A: a cross U(a) copy
    count = count_uk_free_bipartite(n, a, a, "cross")
    printed = (2 ** a - 1) ** n
    corrected = 2 ** a * printed
    return count, printed, corrected


class SparseCount(NamedTuple):
    count: int
    bound: float


def count_sparse_bipartite(n: int, delta: float) -> SparseCount:
    """Exact number of bipartite graphs on n + n with at most delta^2 n^2
    edges, next to the 2^(delta n^2) ceiling.  The ceiling is asymptotic
    and is reported, never asserted (it already fails at n=4, delta=1/4)."""
    if not 0 <= n <= 5:
        raise DomainError("side size must lie in 0..5")
    d = exact(delta, "delta must be a finite number")
    if d < 0:
        raise DomainError("delta must be nonnegative")
    try:
        bound = 2.0 ** float(d * n * n)
    except OverflowError:
        raise DomainError("ceiling 2^(delta n^2) exceeds the float range") from None
    limit = int(d * d * n * n)  # floor; edge counts are integers
    cells = n * n
    count = sum(comb(cells, j) for j in range(min(limit, cells) + 1))
    return SparseCount(count, bound)


# ---------------------------------------------------------------------------
# separated subsets (the distance Delta(u,v) = |Gamma(u) xor Gamma(v)|)


def _side_vectors(bg: BipGraph, side: str):
    if side == "A":
        return list(bg.rows)
    if side == "B":
        return list(bg.cols())
    raise DomainError("side must be 'A' or 'B'")


def max_separated_subset(bg: BipGraph, side: str, x: int) -> int:
    """The mask of a subset of one side with all pairwise distances >= x:
    a largest one up to ``MAX_EXACT_CLIQUE`` vertices on the side, a
    maximal one (a lower bound) above (``far_clique``)."""
    # the single mask -1 keeps every bit of the distance
    return far_clique(_side_vectors(bg, side), (-1,), x)


def separated_subset_ceiling(n: int, x: int, k: int, m: int) -> float:
    """(n/x)^(k-1) * 3^k * (ln m)^(k-1): the separated-subset ceiling for a
    U(k)-free bipartite host.  Natural logarithm throughout."""
    if x < 1 or k < 1 or m < 1:
        raise DomainError(f"separated-subset ceiling needs x, k, m >= 1; "
                          f"got x = {x}, k = {k}, m = {m}")
    return (n / x) ** (k - 1) * 3 ** k * math.log(m) ** (k - 1)


# ---------------------------------------------------------------------------
# sparsening: distinguishing sets


class DistinguishingSet(NamedTuple):
    X: int
    attempts: int


def _draw_window(rows, cols, alpha: Fraction, seed: int,
                 max_attempts: int = 1000) -> tuple[int, int]:
    """(X, attempts): the first random subset X of ``cols``, of size
    ceil(5 ln(c) / alpha) for the c ``rows``, on which the rows leave
    pairwise distinct traces; all of ``cols`` in one attempt when that size
    reaches their number.  Rows pairwise at least alpha * len(cols) >= 1
    apart are distinct on all of ``cols``.

    ``random.sample`` chooses positions from the population's length, the
    sample size and the generator alone, so the window drawn over ``cols``
    is the image of the window drawn over ``range(len(cols))``.
    """
    c = len(rows)
    size = math.ceil(5 * math.log(c) / float(alpha))
    if size >= len(cols):
        return mask_of(cols), 1
    if max_attempts < 1:
        raise DomainError("max_attempts must be positive")
    rng = random.Random(seed)
    for attempt in range(1, max_attempts + 1):
        X = mask_of(rng.sample(cols, size))
        if len({row & X for row in rows}) == c:
            return X, attempt
    raise DomainError(
        f"no distinguishing set of size {size} found in {max_attempts} attempts "
        f"(c={c}, n={len(cols)}, alpha={float(alpha):.4f})")


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
    alpha_f = exact(alpha, "alpha must be a finite number")
    thr = alpha_f * bg.n
    if thr < 1:
        raise DomainError("vacuous separation: alpha * n < 1")
    rows = [bg.rows[v] for v in u_verts]
    for i in range(c):
        for j in range(i):
            if (rows[i] ^ rows[j]).bit_count() < thr:
                raise DomainError(
                    f"pair ({u_verts[j]},{u_verts[i]}) closer than alpha*n")
    return DistinguishingSet(*_draw_window(rows, range(bg.n), alpha_f, seed,
                                           max_attempts))


# ---------------------------------------------------------------------------
# sparsening: clone classes


class SparseningOutput(NamedTuple):
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
    while working.bit_count() >= size_needed:
        rows = [G.adj[b] & working for b in B_verts]
        dmin = min((rows[i] ^ rows[j]).bit_count()
                   for i in range(c) for j in range(i))
        if dmin == 0:
            break  # remaining window no longer separates the core candidates
        cols = list(bits(working))
        try:
            X, _ = _draw_window(rows, cols, Fraction(dmin, len(cols)),
                                rng.randrange(1 << 30))
        except DomainError:
            break
        if X.bit_count() > MAX_TRACE_GROUND:  # the cap on exhaustive trace grounds
            raise DomainError(f"ground set larger than {MAX_TRACE_GROUND}")
        found = first_shattered(G.adj, B_mask, X, size_needed)
        if found is None:
            break
        X_star, realizers = found
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
    alpha_f = exact(alpha, "alpha must be a finite number")

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
    # class has one trace on B'; the core's own round shattered it, so every
    # part gets all 2^t_inner traces
    inner_classes = []
    for rounds in per_part:
        merged: dict[int, int] = {}
        for cand, X_used in rounds:
            if cand == core:
                for v in bits(X_used):
                    pattern = G.adj[v] & core
                    merged[pattern] = merged.get(pattern, 0) | 1 << v
        inner_classes.append(tuple(merged[p] for p in sorted(merged)))

    if direction == "to-core":
        b_prime, classes = core, tuple(inner_classes)
    else:
        # one vertex per class: each part's reps shatter the core, lie
        # outside B in disjoint parts, and |core| = 2^(rt), as the call needs
        reps = [mask_of((cm & -cm).bit_length() - 1 for cm in part_classes)
                for part_classes in inner_classes]
        chosen, b_prime = aligned_reverse_shatter(G, reps, core, t)
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
    # one part's class vertices: a vertex of pattern j joins the core
    # vertices sigma with bit j
    part = [mask_of(sigma for sigma in range(csize) if sigma >> j & 1)
            for j in range(npat) for _ in range(copies)]
    # core vertices live in part 0 alongside its planted classes
    labels = (0,) * csize + tuple(i for i in range(r) for _ in part)
    return graph_from_lower(n, [0] * csize + part * r), labels, (1 << csize) - 1
