"""Exact density/regularity/grey predicates at toy scale, the block-partition
verifier, and the greedy complete-multipartite transversal.

All predicates run in exact rational arithmetic; an ``eps`` or ``delta``
argument may be a float, a Fraction, or a string like "1/4" (floats are
taken at their exact binary value).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product
from math import comb

from .errors import DomainError
from .graphs import Graph, bits, mask_of, part_masks

MAX_REGULAR_SIDE = 12


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
# block partitions


@dataclass(frozen=True)
class BBSPartition:
    """An r-partition aligned with a finer block partition; each part is a
    union of blocks, blocks are nearly equal, and parameters eps/delta/gamma
    govern the grey-pair budget."""

    parts: tuple[int, ...]          # part label per vertex
    blocks: tuple[int, ...]         # vertex mask per block
    eps: Fraction
    delta: Fraction
    gamma: Fraction


@dataclass
class BBSReport:
    ok: bool
    structural_failures: list[str] = field(default_factory=list)
    grey_pairs_by_part: dict[int, list[tuple[int, int]]] = field(default_factory=dict)
    grey_budget: Fraction = Fraction(0)


def verify_bbs_partition(G: Graph, bbs: BBSPartition) -> BBSReport:
    """Check block/part alignment, near-equal block sizes and block counts,
    and the per-part budget of grey block pairs (unordered, at most
    gamma * m^2 where m is the total number of blocks)."""
    report = BBSReport(ok=True)
    pmasks = part_masks(bbs.parts)
    m = len(bbs.blocks)
    union = 0
    for i, blk in enumerate(bbs.blocks):
        if blk == 0:
            report.structural_failures.append(f"block {i} empty")
        if blk & union:
            report.structural_failures.append(f"block {i} overlaps earlier blocks")
        union |= blk
        if blk.bit_count() > MAX_REGULAR_SIDE:
            raise DomainError(f"block sizes capped at {MAX_REGULAR_SIDE}")
        if not any(blk & ~p == 0 for p in pmasks):
            report.structural_failures.append(f"block {i} straddles a part boundary")
    if union != G.vertex_mask:
        report.structural_failures.append("blocks do not cover the vertex set")
    sizes = sorted(blk.bit_count() for blk in bbs.blocks)
    if sizes and sizes[-1] - sizes[0] > 1:
        report.structural_failures.append("block sizes differ by more than 1")
    counts = []
    for p in pmasks:
        counts.append(sum(1 for blk in bbs.blocks if blk & ~p == 0 and blk))
    if counts and max(counts) - min(counts) > 1:
        report.structural_failures.append(
            "parts do not hold an almost equal number of blocks")
    report.grey_budget = _frac(bbs.gamma) * m * m
    for j, p in enumerate(pmasks):
        inside = [blk for blk in bbs.blocks if blk and blk & ~p == 0]
        greys = []
        for x, y in combinations(range(len(inside)), 2):
            if is_grey(G, inside[x], inside[y], bbs.eps, bbs.delta):
                greys.append((x, y))
        report.grey_pairs_by_part[j] = greys
        if len(greys) > report.grey_budget:
            report.ok = False
    if report.structural_failures:
        report.ok = False
    return report


# ---------------------------------------------------------------------------
# greedy transversal into a complete multipartite pattern


def greedy_turan_transversal(G: Graph, blocks, eps,
                             require_feasible: bool = True):
    """Pick one vertex per block, at most one per block, forming a complete
    r-partite pattern across parts.

    ``blocks`` is an r x t grid of vertex masks (parts split into blocks).
    Feasibility asks e >= (1 - eps) C(r,2) n^2 across parts with
    eps r^3 t^3 < 1; with ``require_feasible=False`` the greedy is
    attempted regardless and failure is reported honestly (returns None).
    """
    eps = _frac(eps)
    blocks = [list(row) for row in blocks]
    r = len(blocks)
    if r < 1 or any(len(row) != len(blocks[0]) for row in blocks):
        raise DomainError("blocks must form an r x t grid")
    t = len(blocks[0])
    nsizes = {sum(b.bit_count() for b in row) for row in blocks}
    if len(nsizes) != 1:
        raise DomainError("parts must have equal sizes")
    n = nsizes.pop()
    cross = 0
    for i, j in combinations(range(r), 2):
        pi = mask_of(v for b in blocks[i] for v in bits(b))
        pj = mask_of(v for b in blocks[j] for v in bits(b))
        cross += sum((G.adj[v] & pj).bit_count() for v in bits(pi))
    feas_edges = cross >= (1 - eps) * comb(r, 2) * n * n
    feas_param = eps * r ** 3 * t ** 3 < 1
    if require_feasible and not (feas_edges and feas_param):
        raise DomainError(
            f"feasibility violated (edges ok: {feas_edges}, "
            f"eps*r^3*t^3 < 1: {feas_param})")
    chosen: list[tuple[int, int, int]] = []  # (part, block, vertex)

    def nonneigh_load(v: int) -> int:
        load = 0
        for i2 in range(r):
            for j2 in range(t):
                blk = blocks[i2][j2]
                load += (blk & ~G.adj[v] & ~(1 << v)).bit_count()
        return load

    for i in range(r):
        for j in range(t):
            cands = []
            for v in bits(blocks[i][j]):
                if all(ci == i or (G.adj[v] >> cv & 1)
                       for ci, cj, cv in chosen):
                    cands.append(v)
            if not cands:
                return None
            v = min(cands, key=lambda u: (nonneigh_load(u), u))
            chosen.append((i, j, v))
    # postcondition: complete across parts, at most one per block
    for (ci, cj, cv), (di, dj, dv) in combinations(chosen, 2):
        if ci != di:
            assert G.adj[cv] >> dv & 1, "transversal is not complete across parts"
        assert (ci, cj) != (di, dj), "two vertices drawn from one block"
    return chosen


# ---------------------------------------------------------------------------
# toy partitioner (heuristic plumbing for test fixtures; no claim of the
# regularity lemma's guarantees, whose constants are far beyond desk scale)


def toy_szemeredi_partition(G: Graph, m: int, eps) -> tuple[int, ...]:
    """Exhaustive search over near-equal partitions into m blocks minimizing
    the number of irregular pairs.  n <= 12, m <= 4 only.

    Returns the lexicographically first minimizing labeling among all m^n
    labelings.  Because ``is_epsilon_regular`` is symmetric in its two
    sides, the count of irregular pairs does not change when blocks are
    relabeled, so that labeling is a restricted-growth string (vertex 0 in
    block 0, each later vertex in a used block or the next new one).  The
    search visits only those, one per set partition, in lexicographic
    order; it caches each pair verdict and stops scoring a partition once
    it cannot beat the best so far.
    """
    if G.n > 12 or m > 4 or m < 1:
        raise DomainError("toy partitioner capped at n <= 12, m <= 4")
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
    order.  Test-fixture plumbing, n <= 12, at most min(2r, 4, n) blocks;
    graphs with fewer vertices than parts get one singleton part per
    vertex."""
    if G.n <= r:
        return tuple(range(G.n))
    m = min(2 * r, 4, G.n)
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
