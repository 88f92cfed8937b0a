import random
from fractions import Fraction
from itertools import combinations, islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hptools import (DomainError, PackingPiece, PackingReport, PropertySpec,
                     alpha_adjust, bits, certify_members, class_levels,
                     construct_generalized_universal,
                     decompose, decomposition_failures,
                     extract_universal_packing, graph_from_edges,
                     mask_of, max_bad_set,
                     random_graph, shatters, structure, verify_decomposition,
                     verify_packing_maximality, verify_packing_report)
from hptools.graphs import MAX_EXACT_CLIQUE, greedy_maximal_clique, part_masks
from hptools.structure import _cutoffs, _find_placed_copy, clone_cutoff

from conftest import complete_graph
from oracles import (naive_clone_index, naive_extract_universal_packing,
                     naive_find_placed_copy, naive_uk_copy)


@st.composite
def partitioned_graphs(draw, max_n, max_r):
    """A random graph on 1..max_n vertices with a labeling in 0..max_r-1
    that need not use every label."""
    n = draw(st.integers(1, max_n))
    G = random_graph(n, draw(st.floats(0, 1)), seed=draw(st.integers(0, 10 ** 9)))
    r = draw(st.integers(1, max_r))
    return G, tuple(draw(st.lists(st.integers(0, r - 1), min_size=n, max_size=n)))


def outcome(f):
    """f(), or the message of the DomainError it raises."""
    try:
        return f()
    except DomainError as exc:
        return f"DomainError: {exc}"


# --- clones -------------------------------------------------------------------

def test_clone_cutoff_floor():
    assert clone_cutoff(Fraction(1, 3), 10) == 3
    assert clone_cutoff(0.25, 8) == 2
    assert clone_cutoff("1/4", 8) == 2
    assert clone_cutoff("1/3", 10) == 3


@given(st.one_of(st.floats(0, 1, exclude_min=True, exclude_max=True),
                 st.fractions(0, 1).filter(lambda a: 0 < a < 1)),
       st.integers(0, 64))
def test_integer_cutoffs_match_fraction_products(alpha, n):
    assert _cutoffs(alpha, n) == tuple(int(Fraction(c) * Fraction(alpha) * n)
                                       for c in (1, 2))
    assert clone_cutoff(alpha, n) == int(Fraction(alpha) * n)


@pytest.mark.parametrize("alpha", [1.5, 1, 0, -1, -0.25, float("nan"),
                                   float("inf"), float("-inf"), Fraction(3, 2)])
def test_decompose_rejects_alpha_outside_unit_interval(alpha):
    G = random_graph(8, 0.5, seed=1)
    with pytest.raises(DomainError, match=r"alpha must lie in \(0,1\)"):
        decompose(G, 2, 1, alpha)


def test_decompose_reads_alpha_exactly():
    G = random_graph(10, 0.4, seed=6)
    cert = decompose(G, 2, 1, Fraction(1, 4))
    assert decompose(G, 2, 1, "1/4") == cert == decompose(G, 2, 1, 0.25)


# --- bad sets -----------------------------------------------------------------

def test_bad_set_empty_graph():
    G = graph_from_edges(6, [])
    assert max_bad_set(G, (0, 0, 0, 1, 1, 1), Fraction(1, 3)).bit_count() == 1


def test_bad_set_planted():
    # four vertices with pairwise-disjoint neighbourhood pairs in both parts
    edges = []
    for i in range(4):
        edges += [(i, 4 + 2 * i), (i, 5 + 2 * i)]       # inside part 0
        edges += [(i, 12 + 2 * i), (i, 13 + 2 * i)]     # inside part 1
    G = graph_from_edges(20, edges)
    parts = tuple([0] * 12 + [1] * 8)
    # cutoff 4 = planted distance
    assert max_bad_set(G, parts, Fraction(1, 5)) == 0b1111


def test_bad_set_alpha_one_proper_parts():
    rng = random.Random(2)
    for _ in range(10):
        n = rng.randint(2, 8)
        G = random_graph(n, rng.random(), seed=rng.random())
        parts = tuple(v % 2 for v in range(n)) if n > 1 else (0,)
        B = max_bad_set(G, parts, Fraction(99, 100))
        if n >= 3:
            assert B.bit_count() == 1


def test_bad_set_exact_vs_greedy_and_brute():
    rng = random.Random(3)
    for _ in range(15):
        n = rng.randint(2, 9)
        G = random_graph(n, rng.random(), seed=rng.random())
        parts = tuple(rng.randint(0, 1) for _ in range(n))
        if len(set(parts)) < 2:
            parts = tuple(v % 2 for v in range(n))
        alpha = Fraction(rng.randint(1, n), 2 * n)
        exact = max_bad_set(G, parts, alpha)
        cutoff = clone_cutoff(alpha, n)
        pm = part_masks(parts)

        def far(u, v):
            return all(((G.adj[u] ^ G.adj[v]) & S).bit_count() >= cutoff
                       for S in pm)

        far_rows = [mask_of(v for v in range(n) if v != u and far(u, v))
                    for u in range(n)]
        greedy = greedy_maximal_clique(n, far_rows)
        assert greedy.bit_count() <= exact.bit_count()
        # brute force over subsets
        best = 1
        for size in range(2, n + 1):
            for sub in combinations(range(n), size):
                if all(far(u, v) for u, v in combinations(sub, 2)):
                    best = max(best, size)
        assert exact.bit_count() == best


def test_bad_set_above_the_exact_cap_is_maximal():
    # above MAX_EXACT_CLIQUE vertices the set is greedy: pairwise far, and
    # every other vertex close to one of its members in some part
    G = random_graph(28, 0.5, seed=7)
    parts = tuple(v % 2 for v in range(28))
    alpha = Fraction(1, 3)
    assert G.n > MAX_EXACT_CLIQUE
    B = max_bad_set(G, parts, alpha)
    cutoff = clone_cutoff(alpha, G.n)
    pm = part_masks(parts)

    def far(u, v):
        return all(((G.adj[u] ^ G.adj[v]) & S).bit_count() >= cutoff for S in pm)

    assert B.bit_count() >= 2
    assert all(far(u, v) for u, v in combinations(bits(B), 2))
    assert all(not all(far(u, b) for b in bits(B))
               for u in range(G.n) if not B >> u & 1)


# --- clone index and adjustment -------------------------------------------------

def test_clone_index_self():
    # B holding every vertex: each vertex is its own clone in the first part
    G = random_graph(6, 0.5, seed=4)
    for parts in ((0, 0, 0, 1, 1, 1), (1, 0, 1, 0, 1, 0)):
        for alpha in (Fraction(1, 24), Fraction(1, 12), Fraction(1, 3)):
            assert alpha_adjust(G, parts, G.vertex_mask, alpha)[0] == (0,) * 6


def test_clone_index_planted_part():
    # vertex 5 clones vertex 0 only with respect to part 1
    edges = [(0, 1), (0, 2), (5, 3), (5, 4), (0, 3), (0, 4)]
    G = graph_from_edges(6, edges)
    parts = (0, 0, 0, 1, 1, 1)
    # clone cutoff floor(2 alpha n) = 0: within part 0, 5 differs from 0 on
    # {1,2} and from 1..4 on 0; within part 1 it equals 0.  Vertices 0..4
    # are their own clones in part 0.
    labels, _ = alpha_adjust(G, parts, 0b011111, Fraction(1, 24))
    assert labels == (0, 0, 0, 0, 0, 1)


def test_clone_index_error_when_not_maximal():
    edges = [(0, v) for v in range(2, 8)]
    G = graph_from_edges(8, edges)
    parts = tuple(v % 2 for v in range(8))
    # clone cutoff floor(2 alpha n) = 1; vertex 0 differs from 1 by 3 in each part
    with pytest.raises(DomainError, match="vertex 0 has no clone in B"):
        alpha_adjust(G, parts, 0b10, Fraction(1, 16))


def test_clone_index_never_fails_on_max_bad_set():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(2, 10)
        G = random_graph(n, rng.random(), seed=rng.random())
        parts = tuple(v % 2 for v in range(n))
        alpha = Fraction(1, 4)
        B = max_bad_set(G, parts, 2 * alpha)
        alpha_adjust(G, parts, B, alpha)  # must not raise


def test_alpha_adjust_identity_when_settled():
    G = graph_from_edges(4, [])
    parts = (0, 0, 1, 1)
    B = max_bad_set(G, parts, Fraction(1, 2))
    labels, _ = alpha_adjust(G, parts, B, Fraction(1, 4))
    # every vertex clones B everywhere; first part wins for all
    assert labels == (0, 0, 0, 0)


@given(partitioned_graphs(12, 3), st.booleans(), st.integers(0, (1 << 12) - 1),
       st.sampled_from([Fraction(1, 8), Fraction(1, 4), Fraction(1, 3), 0.3]))
@settings(max_examples=150, deadline=None)
def test_alpha_adjust_labels_are_clone_indices(graph_parts, maximal, B, alpha):
    # a maximal bad set gives labels; an arbitrary B may give the error
    G, parts = graph_parts
    r = max(parts) + 1
    two_alpha = 2 * Fraction(alpha)
    B = (max_bad_set(G, parts, two_alpha, r=r) if maximal
         else B & G.vertex_mask)
    want = tuple(naive_clone_index(G, parts, B, two_alpha, v, r) for v in range(G.n))
    if None in want:  # the first vertex without a clone is named
        want = (f"DomainError: vertex {want.index(None)} has no clone in B within "
                "any part (the bad set is not maximal)")
    assert outcome(lambda: alpha_adjust(G, parts, B, alpha, r)[0]) == want


@given(partitioned_graphs(16, 4),
       st.sampled_from([Fraction(1, 16), Fraction(1, 8), Fraction(1, 4),
                        Fraction(1, 3), Fraction(2, 5), 0.3]))
@settings(max_examples=200, deadline=None)
def test_alpha_adjust_budget_implies_3alpha_clones(graph_parts, alpha):
    # the (3 alpha)-clone half of an alpha-adjustment is never checked: it
    # follows from the budget, which this checks from the definitions
    G, parts = graph_parts
    r = max(parts) + 1
    B = max_bad_set(G, parts, 2 * Fraction(alpha), r)
    labels, ok = alpha_adjust(G, parts, B, alpha, r)
    n = G.n
    a = Fraction(alpha)
    old = [{v for v in range(n) if parts[v] == j} for j in range(r)]
    new = [{v for v in range(n) if labels[v] == j} for j in range(r)]
    assert ok == all(len(old[j] ^ new[j]) <= int(a * n) for j in range(r))
    if ok:
        for j in range(r):
            for v in new[j]:
                assert any(sum(G.adj[v] >> u & 1 != G.adj[b] >> u & 1
                               for u in new[j]) <= int(3 * a * n)
                           for b in bits(B))


def test_alpha_adjust_moves_single_misplaced_vertex():
    # B = {0}; vertex 4 is far from 0 inside part 0 but clones it in part 1,
    # while 8 and 9 stay anchored in part 1 the same way
    edges = [(4, 1), (4, 2), (4, 3)]
    edges += [(8, u) for u in (5, 6, 7)] + [(9, u) for u in (5, 6, 7)]
    G = graph_from_edges(10, edges)
    parts = tuple([0] * 8 + [1] * 2)
    labels, ok = alpha_adjust(G, parts, 0b1, Fraction(1, 10))
    assert ok  # each part moved by 1 <= floor(alpha n) = 1
    assert labels == (0, 0, 0, 0, 1, 0, 0, 0, 1, 1)  # only vertex 4 moved


def test_alpha_adjust_diagnoses_violation():
    # adversarial: most of part 0 clones the bad vertex only inside part 1
    edges = [(v, u) for v in (4, 5, 6, 7) for u in (1, 2, 3)]
    edges += [(u, 8) for u in (1, 2, 3)]
    G = graph_from_edges(10, edges)
    parts = tuple([0] * 8 + [1] * 2)
    labels, ok = alpha_adjust(G, parts, 0b1, Fraction(1, 10))
    assert not ok
    # part 0 loses 1..7 and gains 9: it moves by 8 > floor(alpha n) = 1
    assert labels == (0, 1, 1, 1, 1, 1, 1, 1, 1, 0)


# --- packing ----------------------------------------------------------------------

def test_packing_empty_when_no_copy():
    G = graph_from_edges(8, [])
    rep = extract_universal_packing(G, (0, 0, 0, 0, 1, 1, 1, 1), 1)
    assert rep.pieces == ()
    assert rep.residual == (0b00001111, 0b11110000)


@pytest.mark.parametrize("labels", [12, 8, 0])
def test_packing_parts_must_match_the_graph(labels):
    # too many labels once raised IndexError, too few packed a part of G
    G = random_graph(10, 0.5, seed=1)
    with pytest.raises(DomainError, match="^parts do not match the graph$"):
        extract_universal_packing(G, tuple(v % 2 for v in range(labels)), 1)


def test_packing_planted_single_piece():
    G = graph_from_edges(8, [(0, 2)])
    parts = (0, 0, 0, 0, 1, 1, 1, 1)
    rep = extract_universal_packing(G, parts, 1)
    assert len(rep.pieces) == 1
    piece = rep.pieces[0]
    assert piece.level == 2 and piece.placement == (0, 0)
    assert verify_packing_report(G, parts, rep) == []
    assert verify_packing_maximality(G, parts, rep)


def test_packing_levels_non_increasing():
    rng = random.Random(6)
    for _ in range(10):
        n = rng.randint(8, 16)
        G = random_graph(n, 0.5, seed=rng.random())
        parts = tuple(v % 2 for v in range(n))
        rep = extract_universal_packing(G, parts, 1)
        levels = [p.level for p in rep.pieces]
        assert levels == sorted(levels, reverse=True)
        assert verify_packing_report(G, parts, rep) == []


def test_packing_pieces_verified_by_shatters():
    G = random_graph(14, 0.5, seed=7)
    parts = tuple(v % 2 for v in range(14))
    rep = extract_universal_packing(G, parts, 1)
    for piece in rep.pieces:
        prefix = 0
        for i, layer in enumerate(piece.layers):
            if i:
                assert shatters(G, layer, prefix) is not None
            prefix |= layer


# random_graph(16, 0.5, seed=0) with parts v % 2 packs at k = 1 into a
# 3-level piece, layers {2}, {4, 10} and the odd vertices placed (0, 0, 1),
# then a 2-level piece, layers {0} and {6, 8} placed (0, 0)
TAMPER_G = random_graph(16, 0.5, seed=0)
TAMPER_PARTS = tuple(v % 2 for v in range(16))
TAMPER_REPORT = extract_universal_packing(TAMPER_G, TAMPER_PARTS, 1)


def tampered_piece(i, **fields):
    pieces = list(TAMPER_REPORT.pieces)
    pieces[i] = pieces[i]._replace(**fields)
    return TAMPER_REPORT._replace(pieces=tuple(pieces))


@pytest.mark.parametrize("tampered, problem", [
    # 0 joins 6 but neither 8 nor 12: layer {8, 12} leaves a trace unrealized
    (tampered_piece(1, layers=(0b1, mask_of([8, 12]))),
     "piece 1 fails its shattering chain"),
    (tampered_piece(1, layers=(0b1, mask_of([0, 8]))), "piece 1: layers overlap"),
    (tampered_piece(0, placement=(0, 1, 1)),
     "piece 0: first two layers in different parts"),
    (tampered_piece(0, placement=(0, 0, 0)),
     "piece 0: repeated part beyond the first layer"),
    (tampered_piece(1, placement=(1, 1)), "piece 1: a layer leaves its part"),
    (TAMPER_REPORT._replace(pieces=TAMPER_REPORT.pieces[::-1]),
     "piece levels increase at positions [1]"),
    (TAMPER_REPORT._replace(residual=TAMPER_REPORT.residual[::-1]),
     "residual is not each part minus the packed vertices"),
    (tampered_piece(1, layers=(1 << 2, mask_of([6, 8]))),
     "piece 1 overlaps earlier pieces"),
    (tampered_piece(0, placement=(0, 0)), "piece 0 placement malformed"),
])
def test_packing_verifier_names_each_tampering(tampered, problem):
    assert [(p.level, p.placement) for p in TAMPER_REPORT.pieces] == \
        [(3, (0, 0, 1)), (2, (0, 0))]
    assert TAMPER_REPORT.pieces[1].layers == (0b1, mask_of([6, 8]))
    assert verify_packing_report(TAMPER_G, TAMPER_PARTS, TAMPER_REPORT) == []
    assert problem in verify_packing_report(TAMPER_G, TAMPER_PARTS, tampered)


@st.composite
def planted_level3(draw):
    """U(3,1) (layers of 1, 2 and 8 vertices) with up to 3 extra vertices
    joined at random, relabeled at random; the first two layers share a
    part and the third has its own, the extra vertices are labeled freely."""
    lay = construct_generalized_universal(3, 1)
    m = lay.graph.n
    n = m + draw(st.integers(0, 3))
    noise = random_graph(n, draw(st.floats(0, 1)), seed=draw(st.integers(0, 10 ** 9)))
    edges = lay.graph.edges() + [(u, v) for u, v in noise.edges() if v >= m]
    perm = draw(st.permutations(range(n)))
    p, q = draw(st.permutations(range(3)))[:2]
    first_two = lay.layers[0] | lay.layers[1]
    labels = [p if first_two >> u & 1 else q for u in range(m)]
    labels += draw(st.lists(st.integers(0, 2), min_size=n - m, max_size=n - m))
    parts = [0] * n
    for u in range(n):
        parts[perm[u]] = labels[u]
    return graph_from_edges(n, [(perm[u], perm[v]) for u, v in edges]), tuple(parts)


def check_packing_against_oracle(G, parts, k):
    expected = naive_extract_universal_packing(G, parts, k)
    rep = extract_universal_packing(G, parts, k)
    assert rep.pieces == expected.pieces
    assert rep.residual == expected.residual
    assert verify_packing_maximality(G, parts, expected)
    if expected.pieces:
        # the last piece is still placeable once it is left out
        under = PackingReport(expected.pieces[:-1], (), k, expected.r)
        assert not verify_packing_maximality(G, parts, under)
    return expected


@given(partitioned_graphs(14, 3), st.sampled_from([1, 2]))
@settings(max_examples=150, deadline=None)
def test_packing_matches_search_without_fit_check(graph_parts, k):
    check_packing_against_oracle(*graph_parts, k)


@given(planted_level3())
@settings(max_examples=60, deadline=None)
def test_packing_matches_search_without_fit_check_planted(graph_parts):
    expected = check_packing_against_oracle(*graph_parts, 1)
    assert expected.pieces[0].level == 3


@given(st.one_of(partitioned_graphs(14, 3), planted_level3()),
       st.sampled_from([1, 2]), st.data())
@settings(max_examples=200, deadline=None)
def test_find_placed_copy_matches_the_oracle(graph_parts, k, data):
    # the kernel alone, avoiding any nonempty X: the packing loop grows X
    # from 0 by whole pieces; a set of one or two vertices often leaves a
    # planted copy whole
    G, parts = graph_parts
    pmasks = part_masks(parts)
    X = data.draw(st.one_of(
        st.sets(st.integers(0, G.n - 1), min_size=1, max_size=2).map(mask_of),
        st.integers(1, G.vertex_mask)), label="X")
    t = data.draw(st.integers(2, len(pmasks) + 1), label="t")
    assert _find_placed_copy(G, pmasks, X, k, t) == \
        naive_find_placed_copy(G, pmasks, X, k, t)


def test_find_placed_copy_takes_realizers_in_product_order():
    # part 0: vertex 0, its non-neighbours 1 and 2, its neighbours 3 and 4;
    # part 1: w = 5 + (x, y, z) in binary, joined to 0 iff x, to 1 and 3 iff
    # y, to 2 and 4 iff z.  Layer 1 = {1, 3} realizes only four traces on
    # layer 2's side; {1, 4} is the next choice when the last trace varies
    # fastest, and {2, 3} the next when the first does
    edges = [(0, 3), (0, 4)]
    for i in range(8):
        w, x, y, z = 5 + i, i >> 2 & 1, i >> 1 & 1, i & 1
        edges += [(0, w)] * x + [(1, w), (3, w)] * y + [(2, w), (4, w)] * z
    G = graph_from_edges(13, edges)
    pmasks = part_masks((0,) * 5 + (1,) * 8)
    piece = _find_placed_copy(G, pmasks, 0, 1, 3)
    assert piece == PackingPiece((0b1, 0b10010, 0b1111111100000), 3, (0, 0, 1))
    assert piece == naive_find_placed_copy(G, pmasks, 0, 1, 3)


def test_maximality_rejects_underpacked():
    G = graph_from_edges(8, [(0, 2)])
    parts = (0, 0, 0, 0, 1, 1, 1, 1)
    empty = PackingReport((), (0b00001111, 0b11110000), 1, 2)
    assert not verify_packing_maximality(G, parts, empty)


def test_maximality_rejects_missing_extension():
    # a planted U(3,1): layers {0},{1,2} in part 0 and a shattering 8-set in part 1
    edges = [(0, 2)]
    for m in range(8):
        v = 3 + m
        for i, u in enumerate((0, 1, 2)):
            if m >> i & 1:
                edges.append((v, u))
    G = graph_from_edges(11, edges)
    parts = tuple([0] * 3 + [1] * 8)
    under = PackingReport(
        (PackingPiece((0b001, 0b110), 2, (0, 0)),),
        (0, mask_of(range(3, 11))), 1, 2)
    assert verify_packing_report(G, parts, under) == []
    assert not verify_packing_maximality(G, parts, under)
    full = extract_universal_packing(G, parts, 1)
    assert any(p.level == 3 for p in full.pieces)
    assert verify_packing_maximality(G, parts, full)


# --- decomposition -------------------------------------------------------------------

def test_decompose_bipartite_hint_k1():
    # bipartite member whose bad set is one low-degree left vertex: the
    # adjustment keeps the bipartition, both sides stay edgeless, and the
    # packing is empty, so A is the bad set alone
    edges = [(0, 8), (1, 8), (2, 8), (3, 8), (0, 9), (1, 9), (4, 9), (5, 9),
             (2, 10), (3, 10), (4, 10), (5, 10)]
    G = graph_from_edges(11, edges)
    hint = tuple([0] * 8 + [1] * 3)
    cert = decompose(G, 2, 1, Fraction(3, 22), parts_hint=hint)
    assert cert.adjusted_labels == hint and cert.adjustment_ok
    assert cert.pieces == ()  # edgeless parts pack nothing
    assert cert.exceptional == cert.bad_set == 0b1
    assert verify_decomposition(G, cert)


def test_decompose_planted_copy_lands_in_A():
    # complete bipartite between parts plus a planted path inside part 0
    edges = [(i, 4 + j) for i in range(4) for j in range(4)]
    edges.append((0, 2))
    G = graph_from_edges(8, edges)
    hint = (0, 0, 0, 0, 1, 1, 1, 1)
    cert = decompose(G, 2, 1, Fraction(1, 8), parts_hint=hint)
    packed = mask_of(v for p in cert.pieces for v in bits(p.vertices))
    assert packed & 0b0111  # the planted copy's vertices were packed
    assert packed & cert.exceptional == packed
    assert verify_decomposition(G, cert)


def test_decompose_roundtrip_random():
    rng = random.Random(8)
    for _ in range(10):
        n = rng.randint(6, 14)
        G = random_graph(n, rng.random(), seed=rng.random())
        hint = tuple(v % 2 for v in range(n))
        cert = decompose(G, 2, 1, Fraction(1, 4), parts_hint=hint)
        assert verify_decomposition(G, cert)


def test_verify_decomposition_rejects_tampering():
    G = graph_from_edges(8, [(0, 2)])
    hint = (0, 0, 0, 0, 1, 1, 1, 1)
    cert = decompose(G, 2, 1, Fraction(1, 4), parts_hint=hint)
    assert verify_decomposition(G, cert)
    # move a packed vertex back into a part: partition breaks
    bad = cert._replace(parts=(cert.parts[0] | cert.exceptional, cert.parts[1]))
    assert not verify_decomposition(G, bad)
    # a part containing a whole U(1) copy must be rejected
    bad2 = cert._replace(exceptional=0,
                         parts=(G.vertex_mask & ~cert.parts[1], cert.parts[1]))
    ok2 = verify_decomposition(G, bad2)
    failures = decomposition_failures(G, bad2)
    assert ok2 == (not failures)


def test_verify_decomposition_budget():
    # the honest K3 certificate: |A| = 2 misses the budget 3^(1/2), which
    # is the one problem a separate budget finds
    G = graph_from_edges(3, [(0, 1), (0, 2), (1, 2)])
    cert = decompose(G, 2, 1, Fraction(1, 4))
    assert (cert.exceptional.bit_count(), cert.budget_ok) == (2, False)
    assert decomposition_failures(G, cert) == []
    assert decomposition_failures(G, cert, 0.5) == \
        ["|A| = 2 exceeds n^(1-eps) = 1.732"]


def test_decompose_beyond_the_exact_bad_set_cap():
    # n = 30 takes the greedy bad set, and the verifier's U(k) check accepts
    # the part the packing leaves
    G = graph_from_edges(30, [])
    cert = decompose(G, 1, 2, Fraction(1, 4))
    assert cert.parts == (G.vertex_mask & ~cert.exceptional,)
    assert verify_decomposition(G, cert)


def test_decompose_default_parts():
    G = random_graph(10, 0.5, seed=9)
    cert = decompose(G, 2, 1, Fraction(1, 4))
    assert verify_decomposition(G, cert)


@given(partitioned_graphs(13, 3), st.sampled_from([1, 2]), st.booleans(),
       st.sampled_from([Fraction(1, 8), Fraction(1, 4), Fraction(1, 3)]))
@settings(max_examples=120, deadline=None)
def test_decompose_final_parts_are_uk_free_by_oracle(graph_parts, k, hinted,
                                                     alpha):
    # decompose runs no U(k) search of its own on the final parts; an
    # independent scan of every (A, B) pair inside each part finds none
    G, parts = graph_parts
    r = max(parts) + 1
    cert = decompose(G, r, k, alpha, parts_hint=parts if hinted else None)
    for S in cert.parts:
        assert not naive_uk_copy(G, k, (S, S))


# --- the pipeline's caps, checked where it starts -----------------------------

# past the start, k = 0 would pack every vertex as a one-vertex piece, k = 5
# would pass below 37 vertices and fail inside verify_decomposition above,
# and k = -1 would end in a negative shift
@pytest.mark.parametrize("k", [0, 5, -1])
def test_decompose_refuses_a_level_outside_1_to_4_before_its_hint(k, monkeypatch):
    def no_hint(G, r):
        raise AssertionError("the hint was computed")

    monkeypatch.setattr(structure, "default_parts", no_hint)
    with pytest.raises(DomainError, match="^universal level capped at 4$"):
        decompose(random_graph(12, 0.5, seed=1), 2, k, Fraction(1, 4))


@pytest.mark.parametrize("k", [0, 5, -1])
def test_packing_refuses_a_level_outside_1_to_4(k):
    with pytest.raises(DomainError, match="^universal level capped at 4$"):
        extract_universal_packing(random_graph(12, 0.5, seed=1), (0, 1) * 6, k)


# inside the loop, a refused k would read as 0 certified (or, for k = 5,
# as 388/388 for K3-free at n = 5), and r = 0 divides by zero
@pytest.mark.parametrize("r,k,message", [
    (2, 5, "universal level capped at 4"), (2, 0, "universal level capped at 4"),
    (0, 2, "need at least one part")])
def test_certify_members_refuses_r_and_k_before_its_loop(r, k, message):
    levels = class_levels(PropertySpec.from_graphs([complete_graph(3)]))
    level = next(islice(levels, 5, None))  # the 14 classes of P_5
    with pytest.raises(DomainError, match=f"^{message}$"):
        certify_members(level, r, k, Fraction(1, 4), Fraction(1, 2))


# a refusal counted as uncertified would read as (0, 388, 14), 0 of the
# 388 K3-free graphs on 5 vertices certified; a NaN budget fails every
# founder the same way, and an infinite one passes every founder
@pytest.mark.parametrize("alpha, budget_eps, message", [
    (0, Fraction(1, 2), r"alpha must lie in \(0,1\)"),
    (Fraction(3, 2), Fraction(1, 2), r"alpha must lie in \(0,1\)"),
    ("x", Fraction(1, 2), r"alpha must lie in \(0,1\)"),
    (Fraction(1, 4), -2000,
     r"budget n\^\(1-eps\) is not finite for n = 5, eps = -2000\.0"),
    (Fraction(1, 4), float("nan"),
     r"budget n\^\(1-eps\) is not finite for n = 5, eps = nan"),
    (Fraction(1, 4), float("-inf"),
     r"budget n\^\(1-eps\) is not finite for n = 5, eps = -inf")])
def test_certify_members_refuses_alpha_and_budget_before_its_loop(
        monkeypatch, alpha, budget_eps, message):
    def no_decompose(*args, **kwargs):
        raise AssertionError("a founder was decomposed")

    levels = class_levels(PropertySpec.from_graphs([complete_graph(3)]))
    level = next(islice(levels, 5, None))
    assert (len(level), sum(size for _, size in level)) == (14, 388)
    monkeypatch.setattr(structure, "decompose", no_decompose)
    with pytest.raises(DomainError, match=f"^{message}$"):
        certify_members(level, 2, 2, alpha, budget_eps)
    assert certify_members([], 2, 2, Fraction(1, 4), Fraction(1, 2)) == (0, 0, 0)


def test_decompose_refuses_a_hint_label_outside_0_to_r_minus_1():
    G = random_graph(6, 0.5, seed=3)
    with pytest.raises(DomainError,
                       match=r"^parts hint uses a label outside 0\.\.r-1$"):
        decompose(G, 2, 1, Fraction(1, 4), parts_hint=(0, 1, 0, 1, 0, 2))


def test_packing_refuses_a_host_above_40_vertices():
    G = random_graph(41, 0.1, seed=1)
    with pytest.raises(DomainError, match="^packing capped at 40 vertices$"):
        extract_universal_packing(G, (0,) * 41, 1)


@pytest.mark.parametrize("labels, r", [((0, 1), 65), ((64,), None)])
def test_part_masks_refuses_more_than_64_parts(labels, r):
    # past the cap, every r would be allocated, one mask a part
    with pytest.raises(DomainError, match="^r = 65 exceeds the 64-part cap$"):
        part_masks(labels, r)
