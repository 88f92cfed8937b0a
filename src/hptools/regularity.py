"""Exact density/regularity/grey predicates at toy scale, and the partition
hints that ``decompose`` starts from: the toy block-based partitioner and
the minimum-intra-edge partition.

All predicates run in exact rational arithmetic; an ``eps`` or ``delta``
argument may be a float, a Fraction, or a string like "1/4", read by
``errors.exact`` (floats at their exact binary value).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from operator import itemgetter

from .errors import DomainError, exact
from .graphs import Graph, bits, part_masks

MAX_REGULAR_SIDE = 12
MAX_TOY_VERTICES = 12
MAX_TOY_BLOCKS = 4


def pair_density(G: Graph, A: int, B: int) -> Fraction:
    """Exact density e(A,B) / (|A| |B|) of a disjoint pair."""
    if A & B:
        raise DomainError("pair sides overlap")
    a, b = A.bit_count(), B.bit_count()
    if a == 0 or b == 0:
        raise DomainError("pair sides must be nonempty")
    e = sum((G.adj[v] & B).bit_count() for v in bits(A))
    return Fraction(e, a * b)


def is_epsilon_regular(G: Graph, A: int, B: int, eps) -> bool:
    """Exact truth value of the regularity definition: every X in A, Y in B
    with |X| >= eps|A|, |Y| >= eps|B| has |d(A,B) - d(X,Y)| < eps.

    Exhaustive over X; for each X the extreme densities over Y of each size
    are reached by taking the Y-vertices of smallest/largest degree into X,
    so only those extremes need checking.
    """
    eps = exact(eps, "eps must be a finite number")
    a, b = A.bit_count(), B.bit_count()
    if A & B:
        raise DomainError("pair sides overlap")
    if a == 0 or b == 0:
        raise DomainError("pair sides must be nonempty")
    if a > MAX_REGULAR_SIDE or b > MAX_REGULAR_SIDE:
        raise DomainError(f"exhaustive regularity check capped at {MAX_REGULAR_SIDE}")
    e0 = sum((G.adj[v] & B).bit_count() for v in bits(A))
    b_verts = list(bits(B))
    a_verts = list(bits(A))
    en, ed = eps.numerator, eps.denominator
    ab = a * b
    # integer inner loop: |e0/(ab) - e/(xs*ys)| >= en/ed, cross-multiplied
    for xbits in range(1, 1 << a):
        xsize = xbits.bit_count()
        if xsize * ed < en * a:
            continue
        X = 0
        for i in bits(xbits):
            X |= 1 << a_verts[i]
        degs = sorted((G.adj[y] & X).bit_count() for y in b_verts)
        prefix = [0]
        for d in degs:
            prefix.append(prefix[-1] + d)
        total = prefix[-1]
        for ysize in range(1, b + 1):
            if ysize * ed < en * b:
                continue
            cell = xsize * ysize
            bound = en * ab * cell
            if ed * (e0 * cell - prefix[ysize] * ab) >= bound:
                return False
            if ed * ((total - prefix[b - ysize]) * ab - e0 * cell) >= bound:
                return False
    return True


def is_grey(G: Graph, A: int, B: int, eps, delta) -> bool:
    """Regular at eps with density inside [delta, 1 - delta] (inclusive)."""
    eps = exact(eps, "eps must be a finite number")
    delta = exact(delta, "delta must be a finite number")
    d = pair_density(G, A, B)
    if not delta <= d <= 1 - delta:
        return False
    return is_epsilon_regular(G, A, B, eps)


# ---------------------------------------------------------------------------
# toy partitioner (heuristic plumbing for test fixtures; no claim of the
# regularity lemma's guarantees, whose constants are far beyond desk scale)


def toy_szemeredi_partition(G: Graph, m: int, eps) -> tuple[int, ...]:
    """Exhaustive search over near-equal partitions into m blocks minimizing
    the number of irregular pairs.  n <= ``MAX_TOY_VERTICES``, m <= ``MAX_TOY_BLOCKS``.

    Returns the lexicographically first minimizing labeling among all m^n
    labelings.  Because ``is_epsilon_regular`` is symmetric in its two
    sides, the count of irregular pairs does not change when blocks are
    relabeled, so that labeling is a restricted-growth string (vertex 0 in
    block 0, each later vertex in a used block or the next new one).  The
    search visits only those, one per set partition, in lexicographic
    order, and stops scoring a partition once it cannot beat the best so
    far.

    A pair's verdict depends only on its pattern: the multiset of A's
    rows, each read on B's vertices in order.  ``is_epsilon_regular`` does
    not change when the vertices inside A or inside B are relabeled, so
    pairs with one pattern share one check; verdicts are also kept by the
    pair's masks, which are cheaper to look up.
    """
    if G.n > MAX_TOY_VERTICES or m > MAX_TOY_BLOCKS or m < 1:
        raise DomainError(f"toy partitioner capped at n <= {MAX_TOY_VERTICES}, "
                          f"m <= {MAX_TOY_BLOCKS}")
    if m > G.n:
        raise DomainError("more blocks than vertices")
    eps = exact(eps, "eps must be a finite number")
    n = G.n
    base, extra = divmod(n, m)
    pairs = list(combinations(range(m), 2))
    verdicts: dict[tuple[int, int], bool] = {}
    by_pattern: dict[tuple[str, ...], bool] = {}
    rows = [format(a, f"0{n}b")[::-1] for a in G.adj]  # rows[u][w]: u ~ w
    labels = [0] * n
    masks = [0] * m
    best = None
    best_bad = len(pairs) + 1

    def count_bad() -> int:
        bad = 0
        for i, j in pairs:
            key = (masks[i], masks[j])
            ok = verdicts.get(key)
            if ok is None:
                on_b = itemgetter(*bits(key[1]))
                pattern = tuple(sorted(["".join(on_b(rows[u]))
                                        for u in bits(key[0])]))
                ok = by_pattern.get(pattern)
                if ok is None:
                    ok = by_pattern[pattern] = is_epsilon_regular(G, *key, eps)
                verdicts[key] = ok
            if not ok:
                bad += 1
                if bad >= best_bad:
                    break
        return bad

    def place(v: int, used: int, big: int) -> bool:
        """Label vertices v.. ; True once a partition with no bad pair is
        found.  Every block ends with base or base + 1 vertices, exactly
        ``extra`` of them with base + 1, so every branch reaches a leaf."""
        nonlocal best, best_bad
        if v == n:
            bad = count_bad()
            if bad < best_bad:
                best, best_bad = tuple(labels), bad
            return best_bad == 0
        bit = 1 << v
        for lab in range(min(used + 1, m)):
            size = masks[lab].bit_count()
            if size > base or (size == base and big == extra):
                continue
            labels[v] = lab
            masks[lab] |= bit
            done = place(v + 1, max(used, lab + 1), big + (size == base))
            masks[lab] &= ~bit
            if done:
                return True
        return False

    place(0, 0, 0)
    return best


def toy_bbs_parts(G: Graph, r: int) -> tuple[int, ...]:
    """Group the toy partitioner's blocks into r parts with the fewest grey
    block pairs inside parts, the first such assignment in lexicographic
    order.  Test-fixture plumbing within the toy partitioner's limits, at
    most min(2r, ``MAX_TOY_BLOCKS``, n) blocks; graphs with fewer vertices
    than parts get one singleton part per vertex."""
    if G.n <= r:
        return tuple(range(G.n))
    m = min(2 * r, MAX_TOY_BLOCKS, G.n)
    if r > m:
        raise DomainError(f"cannot group {m} toy blocks into {r} parts")
    block_labels = toy_szemeredi_partition(G, m, Fraction(1, 2))
    masks = part_masks(block_labels, m)
    grey = [(i, j) for i, j in combinations(range(m), 2)
            if masks[i] and masks[j]
            and is_grey(G, masks[i], masks[j], Fraction(1, 2), Fraction(1, 10))]
    best = min((assign for assign in product(range(r), repeat=m)
                if len(set(assign)) == r),
               key=lambda assign: sum(assign[i] == assign[j] for i, j in grey))
    labels = [0] * G.n
    for b, part in enumerate(best):
        for v in bits(masks[b]):
            labels[v] = part
    return tuple(labels)


def min_intra_edges_parts(G: Graph, r: int) -> tuple[int, ...]:
    """An r-partition with few within-part edges: for r = 2 and 2 <= n <= 16
    the balanced one with the fewest (``_exact_bisection``); otherwise a
    greedy descent from labels v mod r that moves a vertex to a part holding
    fewer of its neighbours, never emptying a part, so part sizes may drift
    apart by more than one.  Desk stand-in for a structure-revealing
    partition on larger inputs."""
    if r < 1:
        raise DomainError("need at least one part")
    n, adj = G.n, G.adj
    if r == 2 and 2 <= n <= 16:
        return _exact_bisection(G)
    labels = [v % r for v in range(n)]
    improved = True
    while improved:
        improved = False
        masks = part_masks(labels, r)
        for v in range(n):
            row, cur = adj[v], labels[v]
            loads = [(row & m).bit_count() for m in masks]
            # ties go to the least j: min keeps the first of equal keys
            best_j = min(range(r), key=lambda j: (loads[j], masks[j].bit_count()))
            if best_j != cur and loads[best_j] < loads[cur] \
                    and masks[cur].bit_count() > 1:
                masks[cur] &= ~(1 << v)
                masks[best_j] |= 1 << v
                labels[v] = best_j
                improved = True
    return tuple(labels)


def _exact_bisection(G: Graph) -> tuple[int, ...]:
    """The first balanced bipartition with the fewest within-part edges in
    scan order: vertex 0 in part 0, the smaller size of part 0 first, and
    for each size the other members of part 0 in lexicographic order.

    Depth-first branch and bound in that order: vertices 1, 2, ... are
    decided in index order, part 0 before part 1, and a branch is cut only
    when its lower bound is at least the best count so far, so no earlier
    minimiser is ever cut.  The bound adds the edges inside the decided
    sides, for each undecided vertex the fewer of its edges into either
    side, and max(0, e(R) - a b), where the a and b undecided vertices R
    still owed to the two sides have at most a b edges across.  Once a side
    is owed at most one vertex, the branch's leaves are counted in closed
    form.
    """
    n, adj = G.n, G.adj
    full = (1 << n) - 1
    half = n // 2
    edges = G.edge_count()
    best_S0, best_e = 0, edges + 1
    d0 = adj[0].bit_count()
    # a node: next vertex v; the decided sides S0, S1 of 0..v-1; the number
    # of vertices each side is still owed; the edges inside S0 and S1, from
    # S0 and from S1 into R = {v..n-1}, and inside R
    stack = [(1, 1, 0, n - half - 1, half, 0, d0, 0, edges - d0)]
    if n % 2:  # the smaller part 0 first, so pushed last
        stack.append((1, 1, 0, half - 1, n - half, 0, d0, 0, edges - d0))
    while stack:
        v, S0, S1, need0, need1, inner, x0, x1, eR = stack.pop()
        if need0 <= 1:
            # e counts all of R in part 1; moving u to part 0 adds its
            # edges into S0 and drops its other deg(u) - |N(u) & S0| edges
            e = inner + x1 + eR
            if not need0:
                if e < best_e:
                    best_S0, best_e = S0, e
                continue
            for u in range(v, n):
                eu = e + 2 * (adj[u] & S0).bit_count() - adj[u].bit_count()
                if eu < best_e:
                    best_S0, best_e = S0 | 1 << u, eu
            continue
        if need1 <= 1:  # never 0: a node pushes children only at need1 >= 2
            e = inner + x0 + eR
            for u in range(n - 1, v - 1, -1):  # scan order: u = n - 1 first
                eu = e + 2 * (adj[u] & S1).bit_count() - adj[u].bit_count()
                if eu < best_e:
                    best_S0, best_e = full & ~S1 & ~(1 << u), eu
            continue
        bound = inner + max(0, eR - need0 * need1)
        for u in range(v, n):
            c0, c1 = (adj[u] & S0).bit_count(), (adj[u] & S1).bit_count()
            bound += c0 if c0 < c1 else c1
        if bound >= best_e:
            continue
        c0, c1 = (adj[v] & S0).bit_count(), (adj[v] & S1).bit_count()
        up = (adj[v] >> v + 1).bit_count()
        bit = 1 << v
        stack.append((v + 1, S0, S1 | bit, need0, need1 - 1, inner + c1,
                      x0 - c0, x1 - c1 + up, eR - up))
        stack.append((v + 1, S0 | bit, S1, need0 - 1, need1, inner + c0,
                      x0 - c0 + up, x1 - c1, eR - up))
    return tuple(0 if best_S0 >> v & 1 else 1 for v in range(n))
