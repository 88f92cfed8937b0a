"""Exact density/regularity/grey predicates at toy scale, and the partition
hints that ``decompose`` starts from: the toy block-based partitioner and
the minimum-intra-edge partition.

All predicates run in exact rational arithmetic; an ``eps`` or ``delta``
argument may be a float, a Fraction, or a string like "1/4" (floats are
taken at their exact binary value).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product

from .errors import DomainError
from .graphs import Graph, bits, mask_of, part_masks

MAX_REGULAR_SIDE = 12
MAX_TOY_VERTICES = 12
MAX_TOY_BLOCKS = 4


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


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
    eps = _frac(eps)
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
    delta = _frac(delta)
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
    order; it caches each pair verdict and stops scoring a partition once
    it cannot beat the best so far.
    """
    if G.n > MAX_TOY_VERTICES or m > MAX_TOY_BLOCKS or m < 1:
        raise DomainError(f"toy partitioner capped at n <= {MAX_TOY_VERTICES}, "
                          f"m <= {MAX_TOY_BLOCKS}")
    if m > G.n:
        raise DomainError("more blocks than vertices")
    eps = _frac(eps)
    n = G.n
    base, extra = divmod(n, m)
    pairs = list(combinations(range(m), 2))
    verdicts: dict[tuple[int, int], bool] = {}
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
                ok = verdicts[key] = is_epsilon_regular(G, *key, eps)
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
    """Balanced r-partition minimizing within-part edges: exact for r = 2
    and n <= 16 (scan of all balanced bipartitions), greedy otherwise.
    Desk stand-in for a structure-revealing partition on larger inputs."""
    n = G.n
    if r == 2 and 2 <= n <= 16:
        sizes0 = {n // 2, (n + 1) // 2}
        adj, edges = G.adj, G.edge_count()
        best, best_e = None, None
        for size0 in sorted(sizes0):
            # vertex 0 pinned to part 0 to kill the mirror symmetry
            for companions in combinations(range(1, n), size0 - 1):
                S = 1 | mask_of(companions)
                Sc = G.vertex_mask & ~S
                # within-part edges: all edges minus those across the cut
                e = edges - (adj[0] & Sc).bit_count()
                for v in companions:
                    e -= (adj[v] & Sc).bit_count()
                if best_e is None or e < best_e:
                    best, best_e = S, e
        return tuple(0 if best >> v & 1 else 1 for v in range(n))
    labels = [v % r for v in range(n)]
    improved = True
    while improved:
        improved = False
        masks = part_masks(labels, r)
        for v in range(n):
            cur = labels[v]
            loads = [(G.adj[v] & masks[j]).bit_count() for j in range(r)]
            best_j = min(range(r), key=lambda j: (loads[j], masks[j].bit_count(), j))
            if best_j != cur and loads[best_j] < loads[cur] \
                    and masks[cur].bit_count() > 1:
                masks[cur] &= ~(1 << v)
                masks[best_j] |= 1 << v
                labels[v] = best_j
                improved = True
    return tuple(labels)
