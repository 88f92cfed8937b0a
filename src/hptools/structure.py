"""Clone/bad-set machinery, the universal-packing algorithm, and the
decomposition certificate with its verifier.

Thresholds: the working cutoff is floor(alpha * n) with n = |V(G)|; a clone
pair differs by at most the cutoff, a bad pair by at least the cutoff, in
every part.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import accumulate, combinations, permutations, product
from operator import or_
from typing import NamedTuple

from .errors import DomainError, exact
from .freeness import MAX_UK_HOST, MAX_UK_LEVEL, find_uk_copy
from .graphs import (Graph, bits, far_clique, induced_subgraph, k_submasks,
                     mask_of, part_masks)
from .regularity import (MAX_TOY_BLOCKS, MAX_TOY_VERTICES, min_intra_edges_parts,
                         toy_bbs_parts)
from .universal import shatters, universal_layer_sizes


def clone_cutoff(alpha, n: int) -> int:
    """floor(alpha * n), with alpha read by ``exact``."""
    p, q = exact(alpha, "alpha must be a finite number").as_integer_ratio()
    return p * n // q


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
    # floor(alpha n) and floor(2 alpha n), with no Fraction product
    budget, cutoff2 = clone_cutoff(alpha, G.n), clone_cutoff(alpha, 2 * G.n)
    labels = tuple(_clone_part(G.adj, old_masks, bad, cutoff2, v) for v in range(G.n))
    new_masks = part_masks(labels, len(old_masks))
    return labels, all((S ^ T).bit_count() <= budget
                       for S, T in zip(old_masks, new_masks))


# ---------------------------------------------------------------------------
# the packing algorithm


class PackingPiece(NamedTuple):
    layers: tuple[int, ...]        # vertex mask per layer
    level: int                     # t: number of layers
    placement: tuple[int, ...]     # part index per layer

    @property
    def vertices(self) -> int:
        return reduce(or_, self.layers, 0)


class PackingReport(NamedTuple):
    pieces: tuple[PackingPiece, ...]
    residual: tuple[int, ...]
    k: int
    r: int


def _layer_chain_ok(G: Graph, layers) -> bool:
    """The defining chain: each layer shatters the union of earlier ones.
    The caller has checked that the layers are disjoint and that each has
    2^|union| vertices, which makes the realizers one per trace."""
    return all(shatters(G, layer, prefix) is not None
               for layer, prefix in zip(layers[1:], accumulate(layers, or_)))


def _find_placed_copy(G: Graph, pmasks, X: int, k: int, t: int):
    """First (canonical order) placed generalized-universal copy of t >= 2
    levels avoiding X: layers sized per the construction, the shattering chain
    holding, layer j inside part i(j), with i(1) = i(2) and the rest
    pairwise-new parts.  Exhaustive backtracking over realizer choices, on
    the placements where every layer fits (S_i(1) - X holds layers 1 and 2,
    each later S_i(j) - X holds layer j); the others hold no copy.  Rows are
    symmetric and the pool excludes ``used``, so a trace T on ``used`` has the
    realizers pool & adj[b] (b in T) & ~adj[b] (b in used - T); doubling over
    bits(used) ascending lists these 2^|used| masks in ascending order of T."""
    r = len(pmasks)
    sizes = universal_layer_sizes(t, k)
    if len(sizes) < t or sum(sizes) > (G.vertex_mask & ~X).bit_count():
        return None
    free = [(S & ~X).bit_count() for S in pmasks]

    def place(layers: list[int], used: int, placement: list[int]) -> bool:
        j = len(layers)
        pool = pmasks[placement[j]] & ~X & ~used
        if j == 0:
            choices = k_submasks(pool, sizes[0])
        else:
            # used is the union of the earlier layers, and sizes[j] is
            # 2^|used|: the layer takes one realizer of every trace on it,
            # the last trace varying fastest
            classes = [pool]
            for b in bits(used):
                row = G.adj[b]
                classes = [c & ~row for c in classes] + [c & row for c in classes]
            if not all(classes):
                return False
            if j == t - 1:  # any choice completes the copy: take the lowest
                layers.append(sum(c & -c for c in classes))
                return True
            choices = map(mask_of, product(*map(bits, classes)))
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
    if not 1 <= k <= MAX_UK_LEVEL:
        raise DomainError(f"universal level capped at {MAX_UK_LEVEL}")
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
    """Structural checks on a packing of ``report.r`` parts: piece
    disjointness, layer sizes and shattering chains, the placement rules,
    and the residual (each part minus the packed vertices)."""
    problems = []
    pmasks = part_masks(tuple(parts), report.r)
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
    if report.residual != tuple(S & ~seen for S in pmasks):
        problems.append("residual is not each part minus the packed vertices")
    return problems


def verify_packing_maximality(G: Graph, parts, report: PackingReport) -> bool:
    """No part disjoint from a piece can shatter it using vertices outside
    the earlier pieces, and no further placeable copy remains at any level.
    Both are invariants of the extraction loop; hand-built reports that
    under-pack fail here."""
    pmasks = part_masks(tuple(parts), report.r)
    used = 0
    for piece in report.pieces:
        used |= piece.vertices
        body = piece.vertices
        for S in pmasks:
            if S & body:
                continue
            if shatters(G, S & ~used, body) is not None:
                return False
    for t in range(len(pmasks) + 1, 1, -1):
        if _find_placed_copy(G, pmasks, used, report.k, t) is not None:
            return False
    return True


# ---------------------------------------------------------------------------
# the decomposition


class DecompositionCertificate(NamedTuple):
    n: int
    r: int
    k: int
    exceptional: int               # the set A
    parts: tuple[int, ...]         # masks S_1..S_r after removing A
    hint: tuple[int, ...]          # the partition the pipeline started from
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
    """The |A| budget n^(1-eps), refused unless float reads eps and both are finite."""
    try:
        eps = float(eps)
        budget = n ** (1 - eps)
    except (OverflowError, ZeroDivisionError):
        budget = float("inf")
    except (TypeError, ValueError):
        raise DomainError(f"eps = {eps!r} is not a number") from None
    if budget < float("inf") and eps < float("inf"):  # false for a NaN or +-inf eps
        return budget
    raise DomainError(f"budget n^(1-eps) is not finite for n = {n}, eps = {eps}")


def _pipeline_arguments(n: int, r: int, k: int, alpha) -> Fraction:
    """``decompose``'s checks, in order: r >= 1, the host's order n within
    the packing cap, k a valid level, alpha in (0, 1), returned exactly."""
    if r < 1:
        raise DomainError("need at least one part")
    if n > MAX_UK_HOST:
        raise DomainError(f"packing capped at {MAX_UK_HOST} vertices")
    if not 1 <= k <= MAX_UK_LEVEL:
        raise DomainError(f"universal level capped at {MAX_UK_LEVEL}")
    alpha = exact(alpha, "alpha must lie in (0,1)")
    if not 0 < alpha.numerator < alpha.denominator:  # 0 < alpha < 1
        raise DomainError("alpha must lie in (0,1)")
    return alpha


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
    alpha = _pipeline_arguments(G.n, r, k, alpha)
    budget = _budget(G.n, eps_out)
    parts = tuple(parts_hint) if parts_hint is not None else default_parts(G, r)
    if len(parts) != G.n:
        raise DomainError("parts hint does not match the graph")
    if any(not 0 <= j < r for j in parts):
        raise DomainError("parts hint uses a label outside 0..r-1")
    bad = max_bad_set(G, parts, 2 * alpha, r)
    labels, adjustment_ok = alpha_adjust(G, parts, bad, alpha, r)
    pieces = extract_universal_packing(G, labels, k, r).pieces
    return DecompositionCertificate(
        r=r, k=k, hint=parts, bad_set=bad, adjusted_labels=labels,
        adjustment_ok=adjustment_ok, pieces=pieces, alpha=alpha,
        eps_out=float(eps_out),
        **_consequences(G.n, r, bad, labels, pieces, budget))


def _consequences(n: int, r: int, bad_set: int, adjusted_labels, pieces,
                  budget: float) -> dict:
    """The fields that a certificate's recorded choices and budget fix: n, A
    (bad set plus packed vertices), part j (adjusted part j minus A), budget_ok."""
    if len(adjusted_labels) != n:
        raise DomainError("adjusted labels do not match the graph")
    A = reduce(or_, (p.vertices for p in pieces), bad_set)
    return {"n": n, "exceptional": A,
            "parts": tuple(S & ~A for S in part_masks(adjusted_labels, r)),
            "budget": budget, "budget_ok": A.bit_count() <= budget}


def decomposition_failures(G: Graph, cert: DecompositionCertificate,
                           budget_eps: float | None = None) -> list[str]:
    derived = _consequences(G.n, cert.r, cert.bad_set, cert.adjusted_labels,
                            cert.pieces, _budget(G.n, cert.eps_out))
    problems = [f"{'A' if field == 'exceptional' else field} is not what "
                "the provenance gives" for field, value in derived.items()
                if getattr(cert, field) != value]
    for j, S in enumerate(cert.parts):
        sub = induced_subgraph(G, S)
        if sub.n >= (1 << cert.k) + cert.k and find_uk_copy(sub, cert.k) is not None:
            problems.append(f"part {j} contains a U({cert.k}) copy")
    if budget_eps is not None:
        size, budget = cert.exceptional.bit_count(), _budget(G.n, budget_eps)
        if size > budget:
            problems.append(f"|A| = {size} exceeds n^(1-eps) = {budget:.3f}")
    return problems


def verify_decomposition(G: Graph, cert: DecompositionCertificate) -> bool:
    """Re-check that n, A, the parts, ``budget`` and ``budget_ok`` follow
    from the bad set, the adjusted labels, the pieces and eps_out (which
    makes A and the parts a partition), and that every part is U(k)-free.
    The recorded choices themselves are ``provenance_failures``' to check."""
    return not decomposition_failures(G, cert)


def provenance_failures(G: Graph, cert: DecompositionCertificate) -> list[str]:
    """Re-check the recorded choices: ``bad_set`` is pairwise (2 alpha)-far
    inside every hint part, the alpha-adjustment of the hint replays to
    ``adjusted_labels`` and ``adjustment_ok``, and the pieces pass
    ``verify_packing_report`` on the adjusted parts.  Neither maximality is
    re-checked beyond the replay (every vertex clones a bad vertex): the
    packing's would re-run its own search, and the U(k)-free parts it
    guarantees are checked by ``decomposition_failures``."""
    problems = []
    hint = part_masks(cert.hint, cert.r)
    cutoff = clone_cutoff(2 * cert.alpha, G.n)
    for u, v in combinations(bits(cert.bad_set), 2):
        if any(((G.adj[u] ^ G.adj[v]) & S).bit_count() < cutoff for S in hint):
            problems.append(f"provenance.bad_set holds {u} and {v}, which are "
                            "not (2 alpha)-far inside every hint part")
            break
    try:
        labels, ok = alpha_adjust(G, cert.hint, cert.bad_set, cert.alpha, cert.r)
    except DomainError as exc:
        problems.append(f"provenance.bad_set: {exc}")
    else:
        if labels != cert.adjusted_labels:
            problems.append("provenance.adjusted_labels is not the "
                            "alpha-adjustment of provenance.hint_parts")
        if ok != cert.adjustment_ok:
            problems.append("provenance.adjustment_ok does not say whether "
                            "each part moved by at most alpha n")
    packed = reduce(or_, (p.vertices for p in cert.pieces), 0)
    report = PackingReport(cert.pieces, tuple(
        S & ~packed for S in part_masks(cert.adjusted_labels, cert.r)),
        cert.k, cert.r)
    problems += [f"provenance.packing.pieces: {problem}" for problem
                 in verify_packing_report(G, cert.adjusted_labels, report)]
    return problems


def certify_members(level, r: int, k: int, alpha,
                    budget_eps) -> tuple[int, int, int]:
    """(good, total, classes) for one level of ``class_levels``, a list of
    (founder, size) pairs: how many labeled members are certified, how many
    there are, and how many classes they fall into.

    A graph is certified when ``verify_decomposition`` accepts the
    certificate that ``decompose`` gives from the minimum-intra-edge hint,
    and |A| meets the budget n^(1-budget_eps).  Only each founder, its class's
    least-bitmask labeling, is decomposed, once ``decompose``'s checks and
    the budget's pass; its verdict counts for every member of its class."""
    n = level[0][0].n if level else 0
    _pipeline_arguments(n, r, k, alpha)
    if level:
        _budget(n, budget_eps)
    good = total = 0
    for G, size in level:
        # the min-intra-edge hint rather than decompose's default
        # partition: pinned census fractions depend on this hint
        cert = decompose(G, r, k, alpha, parts_hint=min_intra_edges_parts(G, r),
                         eps_out=budget_eps)
        if verify_decomposition(G, cert) and cert.budget_ok:
            good += size
        total += size
    return good, total, len(level)
