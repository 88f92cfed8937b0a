"""Independent brute-force oracles used to cross-check the library.

Everything here follows the definitions directly (all injections, all
subset pairs, all assignments); some oracles are vectorized with numpy for
the large acceptance sweeps but keep the definition-direct logic.
"""

from collections import Counter
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations, product
from math import factorial

import networkx as nx
import numpy as np
from networkx.algorithms.isomorphism import GraphMatcher

from hptools import (DomainError, Graph, PackingPiece, PackingReport, bits,
                     contains_induced, decompose, is_epsilon_regular, mask_of,
                     min_intra_edges_parts, part_masks, verify_decomposition)
from hptools.graphs import k_submasks
from hptools.universal import universal_layer_sizes


def is_induced_embedding(G: Graph, H: Graph, image) -> bool:
    """Is ``image`` (image[h] in V(G)) injective, with ab in E(H) iff
    image[a]image[b] in E(G)?"""
    return len(set(image)) == H.n and all(0 <= g < G.n for g in image) and all(
        (H.adj[a] >> b & 1) == (G.adj[image[a]] >> image[b] & 1)
        for a in range(H.n) for b in range(a))


def same_as_checked(G: Graph) -> bool:
    """Does G pass the checked constructor (which raises on invalid rows),
    and compare and hash equal to the graph it builds?"""
    checked = Graph(G.n, G.adj)
    return type(G.adj) is tuple and G == checked and hash(G) == hash(checked)


def edge_block_base(n: int, v: int) -> int:
    """Bit position of edge (0, v) in the edge bitmask on n vertices."""
    return n * (n - 1) // 2 - v * (v + 1) // 2


def graph_from_edge_mask(n: int, emask: int) -> Graph:
    adj = [0] * n
    for v in range(1, n):
        base = edge_block_base(n, v)
        for u in range(v):
            if emask >> (base + u) & 1:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return Graph(n, tuple(adj))


def edge_mask_of(G: Graph) -> int:
    emask = 0
    for v in range(1, G.n):
        base = edge_block_base(G.n, v)
        for u in range(v):
            if G.adj[v] >> u & 1:
                emask |= 1 << (base + u)
    return emask


def is_member(spec, G: Graph) -> bool:
    """Does G avoid every forbidden graph of ``spec`` as an induced subgraph?"""
    return all(contains_induced(G, F) is None for F in spec.forbidden)


def naive_enumerate_labeled(n: int, pred=None) -> list[Graph]:
    """Every labeled graph on [n] passing ``pred``, decoded from each edge
    bitmask in ascending order."""
    graphs = (graph_from_edge_mask(n, e) for e in range(1 << (n * (n - 1) // 2)))
    return [G for G in graphs if pred is None or pred(G)]


def naive_contains_induced(G: Graph, H: Graph):
    """All injections V(H) -> V(G), checked edge by edge."""
    for image in permutations(range(G.n), H.n):
        if is_induced_embedding(G, H, image):
            return image
    return None


def naive_pinned_copy(G: Graph, H: Graph, pin: int):
    """All injections V(H) -> V(G) whose image contains ``pin``."""
    for image in permutations(range(G.n), H.n):
        if pin in image and is_induced_embedding(G, H, image):
            return image
    return None


def ordered_copy(G: Graph, H: Graph):
    """The first induced copy of H in the order of ``contains_induced``:
    pattern vertices by descending degree (stable), each onto the smallest
    host vertex consistent with those placed before it."""
    seq = sorted(range(H.n), key=lambda h: -H.adj[h].bit_count())
    image = [-1] * H.n

    def place(i):
        if i == len(seq):
            return True
        x = seq[i]
        for g in range(G.n):
            if g not in image and all(
                    (H.adj[x] >> y & 1) == (G.adj[g] >> image[y] & 1)
                    for y in seq[:i]):
                image[x] = g
                if place(i + 1):
                    return True
                image[x] = -1
        return False

    return tuple(image) if place(0) else None


def to_networkx(G: Graph) -> nx.Graph:
    X = nx.Graph()
    X.add_nodes_from(range(G.n))
    X.add_edges_from(G.edges())
    return X


def nx_induced_copies(G: Graph, H: Graph) -> set:
    """Every induced copy of H in G as an image tuple (image[h] in V(G)),
    inverted from networkx's VF2 matches, which are induced and map host
    vertices to pattern vertices."""
    copies = set()
    for phi in GraphMatcher(to_networkx(G), to_networkx(H)).subgraph_isomorphisms_iter():
        image = [-1] * H.n
        for g, h in phi.items():
            image[h] = g
        copies.add(tuple(image))
    return copies


def naive_uk_copy(G: Graph, k: int, parts=None) -> bool:
    """Scan every disjoint pair (A, B) with |B| = k, |A| = 2^k directly.  A
    B whose pool leaves fewer than 2^k distinct traces on it is skipped, as
    no A drawn from that pool can realize them all."""
    verts = range(G.n)
    b_pool = verts if parts is None else list(bits(parts[1]))
    for B in combinations(b_pool, k):
        Bmask = mask_of(B)
        a_pool = [v for v in (verts if parts is None else bits(parts[0]))
                  if not Bmask >> v & 1]
        if len({G.adj[a] & Bmask for a in a_pool}) < 1 << k:
            continue
        for A in combinations(a_pool, 1 << k):
            traces = {G.adj[a] & Bmask for a in A}
            if len(traces) == 1 << k:
                return True
    return False


def numpy_count_uk_free(m: int, n: int, k: int, mode: str) -> int:
    """Enumerate all 2^(mn) cross patterns and test each per the definition,
    vectorized over the graphs.  Whole mode scans every k-subset of the
    m+n host vertices, mixed subsets included."""
    total = 1 << (m * n)
    g = np.arange(total, dtype=np.uint64)
    rowmask = np.uint64((1 << n) - 1)
    rows = [(g >> np.uint64(a * n)) & rowmask for a in range(m)]
    cols = []
    for b in range(n):
        col = np.zeros(total, dtype=np.uint64)
        for a in range(m):
            col |= ((rows[a] >> np.uint64(b)) & np.uint64(1)) << np.uint64(a)
        cols.append(col)

    def trace_code(v: int, subset: tuple[int, ...]):
        """Trace of host vertex v on the host-vertex subset, as a code."""
        code = np.zeros(total, dtype=np.uint64)
        for pos, s in enumerate(subset):
            if v < m and s >= m:           # A vertex against a B vertex
                bit = (rows[v] >> np.uint64(s - m)) & np.uint64(1)
            elif v >= m and s < m:         # B vertex against an A vertex
                bit = (cols[v - m] >> np.uint64(s)) & np.uint64(1)
            else:                          # same side: never adjacent
                continue
            code |= bit << np.uint64(pos)
        return code

    free = np.ones(total, dtype=bool)
    host = m + n
    if mode == "whole":
        subsets = combinations(range(host), k)
    else:
        subsets = combinations(range(m, host), k)
    for S in subsets:
        seen = np.zeros(total, dtype=np.uint64)
        pool = [v for v in range(host) if v not in S] if mode == "whole" \
            else [v for v in range(m) if v not in S]
        for v in pool:
            seen |= np.uint64(1) << trace_code(v, S)
        free &= seen != np.uint64((1 << (1 << k)) - 1)
    return int(free.sum())


def multiset_count_uk_free(m: int, n: int, k: int, mode: str) -> int:
    """Test every row multiset once from scratch, weighted by its
    m!/prod(mult!) labeled orderings.  Only one-side k-sets are tested: in
    whole mode a mixed k-set cannot be traced (the all-of-S trace needs a
    vertex adjacent to both sides), and a spare vertex on the k-set's own
    side (n > k for B, m > k for A) supplies the empty trace."""

    def traced(rows, size: int, spare: bool) -> bool:
        """Is some k-subset of ``size`` positions traced by ``rows``?"""
        if len(rows) < (1 << k) - spare:
            return False
        for S in map(mask_of, combinations(range(size), k)):
            traces = {row & S for row in rows} - ({0} if spare else set())
            if len(traces) == (1 << k) - spare:
                return True
        return False

    count = 0
    for rows in combinations_with_replacement(range(1 << n), m):
        cols = [mask_of(a for a, row in enumerate(rows) if row >> b & 1)
                for b in range(n)]
        if mode == "cross":
            copy = traced(rows, n, False)
        else:
            copy = traced(rows, n, n > k) or traced(cols, m, m > k)
        if not copy:
            orderings = factorial(m)
            for mult in Counter(rows).values():
                orderings //= factorial(mult)
            count += orderings
    return count


def naive_epsilon_regular(G: Graph, A: int, B: int, eps) -> bool:
    """Double loop over every (X, Y) pair, exact rationals."""
    eps = Fraction(eps)
    a_verts = list(bits(A))
    b_verts = list(bits(B))
    a, b = len(a_verts), len(b_verts)
    e0 = sum((G.adj[v] & B).bit_count() for v in bits(A))
    d0 = Fraction(e0, a * b)
    for xb in range(1, 1 << a):
        X = mask_of(a_verts[i] for i in bits(xb))
        xs = X.bit_count()
        if xs < eps * a:
            continue
        for yb in range(1, 1 << b):
            Y = mask_of(b_verts[i] for i in bits(yb))
            ys = Y.bit_count()
            if ys < eps * b:
                continue
            e = sum((G.adj[v] & Y).bit_count() for v in bits(X))
            if abs(d0 - Fraction(e, xs * ys)) >= eps:
                return False
    return True


def numpy_regular_verdicts(side: int, eps: Fraction) -> np.ndarray:
    """Exact regularity verdicts for every bipartite graph on side+side,
    graphs indexed by their cross-edge bitmask (bit a*side+b)."""
    total = 1 << (side * side)
    g = np.arange(total, dtype=np.uint32)
    pop = np.zeros(total, dtype=np.uint8)
    for s in range(side * side):
        pop += ((g >> np.uint32(s)) & np.uint32(1)).astype(np.uint8)
    e0 = pop[g].astype(np.int64)
    verdict = np.ones(total, dtype=bool)
    en, ed = eps.numerator, eps.denominator
    for xb in range(1, 1 << side):
        xs = bin(xb).count("1")
        if xs * ed < en * side:
            continue
        for yb in range(1, 1 << side):
            ys = bin(yb).count("1")
            if ys * ed < en * side:
                continue
            mask = 0
            for a in range(side):
                if xb >> a & 1:
                    for b in range(side):
                        if yb >> b & 1:
                            mask |= 1 << (a * side + b)
            exy = pop[g & np.uint32(mask)].astype(np.int64)
            # | e0/(s^2) - exy/(xs*ys) | >= eps, all integer arithmetic
            lhs = np.abs(e0 * xs * ys - exy * side * side) * ed
            rhs = en * side * side * xs * ys
            verdict &= lhs < rhs
    return verdict


def naive_toy_szemeredi_partition(G: Graph, m: int, eps) -> tuple[int, ...]:
    """Scan all m^n labelings in lexicographic order and keep the first with
    the fewest irregular block pairs among those with near-equal blocks."""
    eps = Fraction(eps)
    base, extra = divmod(G.n, m)
    target_sizes = sorted([base + (1 if i < extra else 0) for i in range(m)])
    best = None
    best_bad = None
    for labels in product(range(m), repeat=G.n):
        masks = part_masks(labels, m)
        if sorted(mm.bit_count() for mm in masks) != target_sizes:
            continue
        if any(mm == 0 for mm in masks):
            continue
        bad = 0
        for i, j in combinations(range(m), 2):
            if not is_epsilon_regular(G, masks[i], masks[j], eps):
                bad += 1
        if best_bad is None or bad < best_bad:
            best, best_bad = labels, bad
            if bad == 0:
                break
    return tuple(best)


def naive_min_intra_edges_bipartition(G: Graph) -> tuple[int, ...]:
    """Balanced bipartition with the fewest within-part edges, counting the
    edges inside each side vertex by vertex; vertex 0 sits in part 0 and the
    first minimiser in scan order wins."""
    n = G.n
    best, best_e = None, None
    for size0 in sorted({n // 2, (n + 1) // 2}):
        for companions in combinations(range(1, n), size0 - 1):
            S = 1 | mask_of(companions)
            Sc = G.vertex_mask & ~S
            e = sum((G.adj[v] & S).bit_count() for v in bits(S)) // 2
            e += sum((G.adj[v] & Sc).bit_count() for v in bits(Sc)) // 2
            if best_e is None or e < best_e:
                best, best_e = S, e
    return tuple(0 if best >> v & 1 else 1 for v in range(n))


def naive_find_placed_copy(G: Graph, pmasks, X: int, k: int, t: int):
    """The first placed t-level copy avoiding X, by backtracking over every
    placement [p, p, *tail] in order and every realizer choice; a
    placement is given up only when the search reaches a layer that does
    not fit."""
    r = len(pmasks)
    sizes = universal_layer_sizes(t, k)
    if len(sizes) < t or sum(sizes) > (G.vertex_mask & ~X).bit_count():
        return None

    def place(layers: tuple[int, ...], placement):
        j = len(layers)
        if j == t:
            return layers
        used = mask_of(v for m in layers for v in bits(m))
        pool = pmasks[placement[j]] & ~X & ~used
        if pool.bit_count() < sizes[j]:
            return None
        if j == 0:
            for first in k_submasks(pool, sizes[0]):
                found = place((first,), placement)
                if found is not None:
                    return found
            return None
        need = 1 << used.bit_count()
        classes: dict[int, list[int]] = {}
        for a in bits(pool):
            classes.setdefault(G.adj[a] & used, []).append(a)
        if sizes[j] != need or len(classes) != need:
            return None
        ordered = sorted(classes)
        if j == t - 1:
            return layers + (mask_of(classes[tr][0] for tr in ordered),)
        for choice in product(*(classes[tr] for tr in ordered)):
            found = place(layers + (mask_of(choice),), placement)
            if found is not None:
                return found
        return None

    for p in range(r):
        rest = [q for q in range(r) if q != p]
        for tail in (permutations(rest, t - 2) if t >= 3 else [()]):
            placement = (p, p, *tail)
            layers = place((), placement)
            if layers is not None:
                return PackingPiece(layers, t, placement)
    return None


def naive_extract_universal_packing(G: Graph, parts, k: int) -> PackingReport:
    """Take the first placed copy at the highest level that has one, remove
    it, and repeat down to level 2."""
    pmasks = part_masks(tuple(parts))
    r = len(pmasks)
    pieces, X, t = [], 0, r + 1
    while t >= 2:
        piece = naive_find_placed_copy(G, pmasks, X, k, t)
        if piece is None:
            t -= 1
            continue
        pieces.append(piece)
        X |= piece.vertices
    return PackingReport(tuple(pieces), tuple(S & ~X for S in pmasks), k, r)


def brute_hrv(G: Graph, v) -> bool:
    """Every assignment of vertices to parts, checked directly."""
    r = len(v)
    for assign in product(range(r), repeat=G.n):
        ok = True
        for j in range(r):
            members = [u for u in range(G.n) if assign[u] == j]
            for x, y in combinations(members, 2):
                edge = bool(G.adj[x] >> y & 1)
                if edge != bool(v[j]):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return False


def brute_chi_c(forbidden, r_max: int) -> int:
    """max r such that some v in {0,1}^r excludes every forbidden graph,
    scanning all (r, v, partition) triples."""
    best = 0
    for r in range(1, r_max + 1):
        found = False
        for v in product((0, 1), repeat=r):
            if all(not brute_hrv(F, v) for F in forbidden):
                found = True
                break
        if found:
            best = r
    return best


def brute_max_far_subset(vectors, x: int) -> int:
    """Largest subset with pairwise hamming distance >= x, by subset scan."""
    sz = len(vectors)
    best = 0
    for sub in range(1 << sz):
        idx = [i for i in range(sz) if sub >> i & 1]
        if len(idx) <= best:
            continue
        if all((vectors[i] ^ vectors[j]).bit_count() >= x
               for i, j in combinations(idx, 2)):
            best = len(idx)
    return best


def naive_clone_index(G: Graph, parts, B: int, alpha, v: int, r: int):
    """The first part j of r in which v is an alpha-clone of some b in B:
    at most floor(alpha n) vertices of part j are adjacent to exactly one
    of v and b.  None when v clones no b in any part."""
    cutoff = int(Fraction(alpha) * G.n)
    nbrs = [{u for u in range(G.n) if G.adj[w] >> u & 1} for w in range(G.n)]
    for j in range(r):
        part = {u for u in range(G.n) if parts[u] == j}
        if any(len((nbrs[v] ^ nbrs[b]) & part) <= cutoff
               for b in range(G.n) if B >> b & 1):
            return j
    return None


def nonshattering_by_inclusion_exclusion(a: int, n: int) -> int:
    """Count attachments missing at least one trace pattern."""
    from math import comb
    total = 1 << a
    return sum((-1) ** (j + 1) * comb(total, j) * (total - j) ** n
               for j in range(1, total + 1))


def realizes_every_trace(G: Graph, W, B) -> bool:
    """Do the vertices W, disjoint from B, have every subset of B as the
    trace of a neighbourhood on B?  The definition of "W shatters B"."""
    B = set(B)
    traces = {frozenset(b for b in B if G.adj[w] >> b & 1) for w in W}
    return not B & set(W) and len(traces) == 2 ** len(B)


def clone_class_failures(G: Graph, parts, t: int, direction: str, out) -> list[str]:
    """Conditions (a) and (b) of a clone-class result with t >= 1, checked
    from the definitions.  (a): every class lies in its part outside B' and
    all its members have one trace on B'.  (b), to-core: |B'| = t, each part
    has 2^t classes with distinct traces, and every transversal of a part's
    classes shatters B'.  (b), from-core: |B'| = 2^(rt), each part has t
    classes, and B' shatters the transversal of lowest class vertices."""
    problems = []
    r = max(parts) + 1
    bp = [b for b in range(G.n) if out.b_prime >> b & 1]
    members = [[[v for v in range(G.n) if cm >> v & 1] for cm in part]
               for part in out.classes]
    if len(members) != r:
        problems.append(f"{len(members)} class lists for {r} parts")
    for j, part in enumerate(members):
        for i, cls in enumerate(part):
            if not cls or any(parts[v] != j or v in bp for v in cls):
                problems.append(f"class {i} of part {j} is empty or leaves "
                                "its part minus B'")
            if len({G.adj[v] & out.b_prime for v in cls}) != 1:
                problems.append(f"class {i} of part {j} has several traces on B'")
    if direction == "to-core":
        if len(bp) != t:
            problems.append(f"|B'| = {len(bp)}, not t = {t}")
        for j, part in enumerate(members):
            traces = {G.adj[cls[0]] & out.b_prime for cls in part if cls}
            if len(part) != 2 ** t or len(traces) != 2 ** t:
                problems.append(f"part {j} lacks 2^t classes with distinct traces")
            if not all(realizes_every_trace(G, W, bp) for W in product(*part)):
                problems.append(f"a transversal of part {j} does not shatter B'")
    else:
        if len(bp) != 2 ** (r * t):
            problems.append(f"|B'| = {len(bp)}, not 2^(rt) = {2 ** (r * t)}")
        if any(len(part) != t for part in members):
            problems.append("a part does not have t classes")
        lowest = [cls[0] for part in members for cls in part if cls]
        if not realizes_every_trace(G, bp, lowest):
            problems.append("B' does not shatter the lowest-vertex transversal")
    return problems


def labeled_certified_fraction(graphs, r: int, k: int, alpha,
                               budget_eps) -> tuple[int, int]:
    """(good, total) with every labeled member decomposed on its own: from
    the minimum-intra-edge hint, re-verified, |A| within n^(1-budget_eps)."""
    good = total = 0
    for G in graphs:
        total += 1
        try:
            cert = decompose(G, r, k, alpha, parts_hint=min_intra_edges_parts(G, r),
                             eps_out=budget_eps)
        except DomainError:
            continue
        if verify_decomposition(G, cert) and cert.budget_ok:
            good += 1
    return good, total
