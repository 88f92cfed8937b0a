"""Clone/bad-set machinery, the universal-packing algorithm, and the
decomposition certificate with its verifier.

Thresholds: the working cutoff is floor(alpha * n) with n = |V(G)|; a clone
pair differs by at most the cutoff, a bad pair by at least the cutoff, in
every part.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, permutations, product
from operator import or_

from .errors import DomainError
from .freeness import MAX_UK_HOST, find_uk_copy
from .graphs import (Graph, IsomorphismClasses, bits, far_clique,
                     induced_subgraph, k_submasks, mask_of, part_masks)
from .regularity import (MAX_TOY_BLOCKS, MAX_TOY_VERTICES, min_intra_edges_parts,
                         toy_bbs_parts)
from .universal import shatters, universal_layer_sizes


def _cutoffs(alpha, n: int) -> tuple[int, int]:
    """floor(c * alpha * n) for c = 1, 2, by integer floor division of one
    numerator/denominator pair: a float is read by its exact binary value,
    a string such as "1/4" through Fraction.  For alpha >= 0 this is
    truncation; below 0 every cutoff is negative, which no bit count meets
    under either rounding."""
    if isinstance(alpha, str):
        alpha = Fraction(alpha)
    p, q = alpha.as_integer_ratio()
    pn = p * n
    return pn // q, 2 * pn // q


def clone_cutoff(alpha, n: int) -> int:
    return _cutoffs(alpha, n)[0]


def max_bad_set(G: Graph, parts, alpha, r: int | None = None) -> int:
    """The mask of a vertex set pairwise far apart inside every part: a
    largest one up to ``MAX_EXACT_CLIQUE`` vertices, a maximal one (a lower
    bound) above (``far_clique``).  An explicit ``r`` admits empty parts,
    which kill every bad pair once the cutoff is positive."""
    return far_clique(G.adj, part_masks(parts, r), clone_cutoff(alpha, G.n))


def _clone_part(adj, pmasks, bad, cutoff: int, v: int) -> int:
    for j, S in enumerate(pmasks):
        for b in bad:
            if ((adj[v] ^ adj[b]) & S).bit_count() <= cutoff:
                return j
    raise DomainError(f"vertex {v} has no clone in B within any part "
                      "(the bad set is not maximal)")


def alpha_adjust(G: Graph, parts, B: int, alpha,
                 r: int | None = None) -> tuple[tuple[int, ...], bool]:
    """(labels, ok): move every vertex to the first part where it clones a
    bad vertex (clone threshold 2*alpha, matching a maximal (2 alpha)-bad
    B), and say whether the result is an alpha-adjustment: every part moved
    by at most alpha*n (diagnosed, never asserted).  That bound also makes
    each vertex a (3 alpha)-clone of B in its new part S'_j, unchecked: it
    lies within floor(2 alpha n) of some b in B inside its old part S_j,
    and |S_j ^ S'_j| <= floor(alpha n)."""
    old_masks = part_masks(tuple(parts), r)
    bad = list(bits(B))
    budget, cutoff2 = _cutoffs(alpha, G.n)
    labels = tuple(_clone_part(G.adj, old_masks, bad, cutoff2, v) for v in range(G.n))
    new_masks = part_masks(labels, len(old_masks))
    return labels, all((S ^ T).bit_count() <= budget
                       for S, T in zip(old_masks, new_masks))


# ---------------------------------------------------------------------------
# the packing algorithm


@dataclass(frozen=True)
class PackingPiece:
    layers: tuple[int, ...]        # vertex mask per layer
    level: int                     # t: number of layers
    placement: tuple[int, ...]     # part index per layer

    @property
    def vertices(self) -> int:
        m = 0
        for layer in self.layers:
            m |= layer
        return m


@dataclass(frozen=True)
class PackingReport:
    pieces: tuple[PackingPiece, ...]
    residual: tuple[int, ...]
    k: int
    r: int

    def packed_mask(self) -> int:
        m = 0
        for p in self.pieces:
            m |= p.vertices
        return m


def _layer_chain_ok(G: Graph, layers) -> bool:
    """The defining chain: each layer shatters the union of earlier ones.
    The caller has checked that the layers are disjoint and that each has
    2^|union| vertices, which makes the realizers one per trace."""
    return all(shatters(G, layer, prefix) is not None
               for layer, prefix in zip(layers[1:], accumulate(layers, or_)))


def _find_placed_copy(G: Graph, pmasks, X: int, k: int, t: int):
    """First (canonical order) placed generalized-universal copy of t levels
    avoiding X: layers sized per the construction, the shattering chain
    holding, layer j inside part i(j), with i(1) = i(2) and the rest
    pairwise-new parts.  Exhaustive backtracking over realizer choices, on
    the placements where every layer fits (S_i(1) - X holds layers 1 and 2,
    each later S_i(j) - X holds layer j); the others hold no copy."""
    r = len(pmasks)
    sizes = universal_layer_sizes(t, k)
    if len(sizes) < t or sum(sizes) > (G.vertex_mask & ~X).bit_count():
        return None
    free = [(S & ~X).bit_count() for S in pmasks]

    def place(layers: list[int], used: int, placement: list[int]) -> bool:
        j = len(layers)
        if j == t:
            return True
        pool = pmasks[placement[j]] & ~X & ~used
        if j == 0:
            choices = k_submasks(pool, sizes[0])
        else:
            # used is the union of the earlier layers, and sizes[j] is
            # 2^|used|: the layer takes one realizer of every trace on it,
            # the last trace varying fastest
            classes: dict[int, list[int]] = {}
            for a in bits(pool):
                classes.setdefault(G.adj[a] & used, []).append(a)
            if len(classes) < sizes[j]:
                return False
            ordered = [classes[tr] for tr in sorted(classes)]
            choices = map(mask_of, product(*ordered))
        for layer in choices:
            layers.append(layer)
            if place(layers, used | layer, placement):
                return True
            layers.pop()
        return False

    for p in range(r):
        if free[p] < sum(sizes[:2]):
            continue
        for tail in permutations([q for q in range(r) if q != p], t - 2):
            if any(free[q] < size for q, size in zip(tail, sizes[2:])):
                continue
            placement = [p, p, *tail]
            layers: list[int] = []
            if place(layers, 0, placement):
                return PackingPiece(tuple(layers), t, tuple(placement))
    return None


def extract_universal_packing(G: Graph, parts, k: int,
                              r: int | None = None) -> PackingReport:
    """The packing loop: for t from r+1 down to 2, repeatedly take the first
    placeable t-level copy, remove its vertices, and continue.  Levels too
    large to fit simply contribute no pieces.  A 2-level copy is a U(k)
    copy inside one part, so every residual part is U(k)-free."""
    parts = tuple(parts)
    if len(parts) != G.n:
        raise DomainError("parts do not match the graph")
    if G.n > MAX_UK_HOST:
        raise DomainError(f"packing capped at {MAX_UK_HOST} vertices")
    pmasks = part_masks(parts, r)
    r = len(pmasks)
    pieces = []
    X = 0
    t = r + 1
    while t >= 2:
        piece = _find_placed_copy(G, pmasks, X, k, t)
        if piece is None:
            t -= 1
            continue
        pieces.append(piece)
        X |= piece.vertices
    residual = tuple(S & ~X for S in pmasks)
    return PackingReport(tuple(pieces), residual, k, r)


def verify_packing_report(G: Graph, parts, report: PackingReport) -> list[str]:
    """Structural checks on a packing: piece disjointness, layer sizes and
    shattering chains, and the placement rules."""
    problems = []
    pmasks = part_masks(tuple(parts))
    seen = 0
    for idx, piece in enumerate(report.pieces):
        v = piece.vertices
        if v & seen:
            problems.append(f"piece {idx} overlaps earlier pieces")
        seen |= v
        sizes = universal_layer_sizes(piece.level, report.k)
        if [m.bit_count() for m in piece.layers] != sizes:
            problems.append(f"piece {idx} has wrong layer sizes")
            continue
        if sum(sizes) != v.bit_count():
            problems.append(f"piece {idx}: layers overlap")
        elif not _layer_chain_ok(G, piece.layers):
            problems.append(f"piece {idx} fails its shattering chain")
        pl = piece.placement
        if len(pl) != piece.level or piece.level < 2:
            problems.append(f"piece {idx} placement malformed")
            continue
        if pl[0] != pl[1]:
            problems.append(f"piece {idx}: first two layers in different parts")
        rest = pl[1:]
        if len(set(rest)) != len(rest):
            problems.append(f"piece {idx}: repeated part beyond the first layer")
        for layer, part in zip(piece.layers, pl):
            if layer & ~pmasks[part]:
                problems.append(f"piece {idx}: a layer leaves its part")
    rising = [i for i in range(1, len(report.pieces))
              if report.pieces[i].level > report.pieces[i - 1].level]
    if rising:
        problems.append(f"piece levels increase at positions {rising}")
    return problems


def verify_packing_maximality(G: Graph, parts, report: PackingReport) -> bool:
    """No part disjoint from a piece can shatter it using vertices outside
    the earlier pieces, and no further placeable copy remains at any level.
    Both are invariants of the extraction loop; hand-built reports that
    under-pack fail here."""
    pmasks = part_masks(tuple(parts))
    used = 0
    for piece in report.pieces:
        used |= piece.vertices
        body = piece.vertices
        for j, S in enumerate(pmasks):
            if S & body:
                continue
            if shatters(G, S & ~used, body) is not None:
                return False
    X = report.packed_mask()
    for t in range(len(pmasks) + 1, 1, -1):
        if _find_placed_copy(G, pmasks, X, report.k, t) is not None:
            return False
    return True


# ---------------------------------------------------------------------------
# the decomposition


@dataclass(frozen=True)
class DecompositionCertificate:
    n: int
    r: int
    k: int
    exceptional: int               # the set A
    parts: tuple[int, ...]         # masks S_1..S_r after removing A
    bad_set: int
    adjusted_labels: tuple[int, ...]
    adjustment_ok: bool
    pieces: tuple[PackingPiece, ...]   # the universal packing
    alpha: Fraction
    eps_out: float
    budget: float
    budget_ok: bool


def default_parts(G: Graph, r: int) -> tuple[int, ...]:
    """Partition hint when none is supplied: the toy block-based partition
    within the toy partitioner's limits, the minimum-intra-edge one above."""
    if G.n <= MAX_TOY_VERTICES and r <= MAX_TOY_BLOCKS:
        return toy_bbs_parts(G, r)
    return min_intra_edges_parts(G, r)


def _budget(n: int, eps) -> float:
    """The |A| budget n^(1-eps) in floats, refused when it is not finite."""
    try:
        eps = float(eps)
        return n ** (1 - eps)
    except (OverflowError, ZeroDivisionError):
        raise DomainError(f"budget n^(1-eps) is not finite for n = {n}, "
                          f"eps = {eps}") from None


def decompose(G: Graph, r: int, k: int, alpha, parts_hint=None,
              eps_out: float = 0.5) -> DecompositionCertificate:
    """Full pipeline: maximal (2 alpha)-bad set (``max_bad_set``),
    alpha-adjustment, universal packing, then A = B union packed and S_j =
    S'_j minus A, the packing's residual part minus B.

    ``alpha`` (a float, a Fraction or a string such as "1/4") must lie in
    (0, 1).  Each final part is U(k)-free by construction: the packing
    loop stops only when its 2-level search, a U(k) search inside each
    part, finds nothing, and ``verify_decomposition`` checks it again
    independently.  The |A| budget n^(1-eps_out) is reported, never
    asserted: it holds for almost all graphs of a property, not for every
    input.
    """
    if r < 1:
        raise DomainError("need at least one part")
    if G.n > MAX_UK_HOST:
        raise DomainError(f"packing capped at {MAX_UK_HOST} vertices")
    try:
        alpha = Fraction(alpha)
    except (ValueError, OverflowError):  # NaN, an infinity, a bad string
        raise DomainError("alpha must lie in (0,1)") from None
    if not 0 < alpha.numerator < alpha.denominator:  # 0 < alpha < 1
        raise DomainError("alpha must lie in (0,1)")
    budget = _budget(G.n, eps_out)
    parts = tuple(parts_hint) if parts_hint is not None else default_parts(G, r)
    if len(parts) != G.n:
        raise DomainError("parts hint does not match the graph")
    if any(not 0 <= j < r for j in parts):
        raise DomainError("parts hint uses a label outside 0..r-1")
    bad = max_bad_set(G, parts, 2 * alpha, r)
    labels, adjustment_ok = alpha_adjust(G, parts, bad, alpha, r)
    packing = extract_universal_packing(G, labels, k, r)
    A = bad | packing.packed_mask()
    return DecompositionCertificate(
        n=G.n, r=r, k=k, exceptional=A,
        parts=tuple(S & ~bad for S in packing.residual),
        bad_set=bad, adjusted_labels=labels,
        adjustment_ok=adjustment_ok, pieces=packing.pieces,
        alpha=alpha, eps_out=float(eps_out), budget=budget,
        budget_ok=A.bit_count() <= budget)


def decomposition_failures(G: Graph, cert: DecompositionCertificate,
                           budget_eps: float | None = None) -> list[str]:
    problems = []
    union = cert.exceptional
    for j, S in enumerate(cert.parts):
        if S & union:
            problems.append(f"part {j} overlaps A or an earlier part")
        union |= S
    if union != G.vertex_mask:
        problems.append("certificate does not partition the vertex set")
    for j, S in enumerate(cert.parts):
        sub = induced_subgraph(G, S)
        if sub.n >= (1 << cert.k) + cert.k and find_uk_copy(sub, cert.k) is not None:
            problems.append(f"part {j} contains a U({cert.k}) copy")
    size = cert.exceptional.bit_count()
    if cert.budget != _budget(G.n, cert.eps_out):
        problems.append(f"budget {cert.budget} is not n^(1-eps_out) for "
                        f"eps_out = {cert.eps_out}")
    if cert.budget_ok != (size <= cert.budget):
        problems.append(f"budget_ok is {cert.budget_ok} for |A| = {size} "
                        f"and budget {cert.budget:.3f}")
    if budget_eps is not None:
        budget = _budget(G.n, budget_eps)
        if size > budget:
            problems.append(f"|A| = {size} exceeds n^(1-eps) = {budget:.3f}")
    return problems


def verify_decomposition(G: Graph, cert: DecompositionCertificate,
                         budget_eps: float | None = None) -> bool:
    """Re-check partition validity, U(k)-freeness of every part, the
    certificate's own budget claim (``budget`` is n^(1-eps_out) and
    ``budget_ok`` says whether |A| meets it), and (when ``budget_eps`` is
    given) the |A| budget n^(1-budget_eps)."""
    return not decomposition_failures(G, cert, budget_eps)


def certify_members(graphs, r: int, k: int, alpha,
                    budget_eps) -> tuple[int, int, int]:
    """(good, total, classes): how many of ``graphs`` are certified, how
    many there are, and how many isomorphism classes they fall into.

    A graph is certified when ``decompose`` from the minimum-intra-edge
    hint succeeds, ``verify_decomposition`` accepts its certificate, and |A|
    meets the budget n^(1-budget_eps).  Only the first graph of each class
    is decomposed; its verdict counts for every later graph of the class.
    Fed in ascending edge-bitmask order, as ``enumerate_property`` yields
    them, that first graph is the class's least-bitmask labeling, the one
    that orderly generation keeps."""
    classes = IsomorphismClasses()
    verdicts: list[bool] = []
    good = total = 0
    for G in graphs:
        i = classes.index(G)
        if i == len(verdicts):
            # the min-intra-edge hint rather than decompose's default
            # partition: pinned census fractions depend on this hint
            try:
                cert = decompose(G, r, k, alpha,
                                 parts_hint=min_intra_edges_parts(G, r),
                                 eps_out=budget_eps)
            except DomainError:
                verdicts.append(False)
            else:
                verdicts.append(verify_decomposition(G, cert) and cert.budget_ok)
        good += verdicts[i]
        total += 1
    return good, total, classes.count
