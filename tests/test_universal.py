import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hptools import (DomainError, aligned_reverse_shatter, bits,
                     construct_generalized_universal, construct_universal,
                     construct_universal_star, graph_from_edges, mask_of,
                     sauer_bound, sauer_find_shattered, shatters)
from hptools.universal import MAX_TRACE_GROUND, first_realizers, first_shattered


# --- construct_universal ---------------------------------------------------

@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_universal_sizes_and_edges(k):
    uni = construct_universal(k)
    assert uni.A.bit_count() == 1 << k
    assert uni.B.bit_count() == k
    assert uni.graph.edge_count() == k * (1 << (k - 1))


def test_universal_identity_realizers():
    uni = construct_universal(3)
    w = shatters(uni.graph, uni.A, uni.B)
    assert w is not None
    b_verts = list(bits(uni.B))
    for trace, a in w.items():
        # the vertex labeled by a subset realizes exactly that subset
        assert mask_of(b_verts[j] for j in range(3) if a >> j & 1) == trace
    assert len(set(w.values())) == 8


def test_universal_domain():
    for k in (0, 6):
        with pytest.raises(DomainError):
            construct_universal(k)


# --- shatters ----------------------------------------------------------------

def test_shatters_path_example():
    G = graph_from_edges(3, [(0, 1)])
    w = shatters(G, 0b101, 0b010)
    assert w is not None and set(w) == {0, 0b010}


def test_shatters_empty_graph():
    G = graph_from_edges(4, [])
    assert shatters(G, 0b0111, 0b1000) is None


def test_shatters_errors():
    G = graph_from_edges(3, [])
    with pytest.raises(DomainError):
        shatters(G, 0b011, 0b001)


def test_shatters_empty_target():
    G = graph_from_edges(2, [])
    assert shatters(G, 0b01, 0) is not None
    assert shatters(G, 0, 0) is None


@given(st.randoms())
@settings(max_examples=30, deadline=None)
def test_shatters_monotone(rnd):
    # shrinking B or growing A preserves shattering
    k = rnd.randint(1, 3)
    uni = construct_universal(k)
    n = uni.graph.n
    G = uni.graph
    w = shatters(G, uni.A, uni.B)
    assert w is not None
    sub_B = mask_of(v for v in bits(uni.B) if rnd.random() < 0.6)
    assert shatters(G, uni.A, sub_B) is not None
    # dropping non-realizer vertices of A keeps the witness
    keep = set(w.values())
    A2 = mask_of(v for v in bits(uni.A) if v in keep or rnd.random() < 0.5)
    assert shatters(G, A2, uni.B) is not None


@given(st.lists(st.integers(0, 63), max_size=12), st.integers(0, 4095),
       st.integers(0, 63), st.integers(1, 70))
@settings(max_examples=200, deadline=None)
def test_first_realizers_matches_first_occurrence_scan(rows, pool, X, need):
    pool &= (1 << len(rows)) - 1
    want = {}
    for a in range(len(rows)):
        if pool >> a & 1 and len(want) < need:
            want.setdefault(rows[a] & X, a)
    got = first_realizers(rows, pool, X, need)
    assert list(got.items()) == list(want.items())


@given(st.lists(st.integers(0, 63), max_size=12), st.integers(0, 4095),
       st.integers(0, 63), st.integers(0, 3))
@settings(max_examples=200, deadline=None)
def test_first_shattered_is_the_first_shattered_set_in_colex_order(
        rows, pool, ground, k):
    pool &= (1 << len(rows)) - 1
    pooled = [a for a in range(len(rows)) if pool >> a & 1]
    want = None
    for X in sorted(mask_of(c) for c in combinations(bits(ground), k)):
        realizers = {}
        for a in pooled:
            realizers.setdefault(rows[a] & X, a)
        if len(realizers) == 1 << k:
            want = X, realizers
            break
    assert first_shattered(rows, pool, ground, k) == want


# --- generalized / starred universal graphs ---------------------------------

@pytest.mark.parametrize("r,k,sizes", [(2, 1, [1, 2]), (3, 1, [1, 2, 8]),
                                       (2, 3, [3, 8])])
def test_generalized_sizes(r, k, sizes):
    lay = construct_generalized_universal(r, k)
    assert [m.bit_count() for m in lay.layers] == sizes
    assert lay.graph.n == sum(sizes)


def test_layer_size_law_and_chain():
    for r, k in [(2, 1), (3, 1), (2, 2), (2, 3)]:
        lay = construct_generalized_universal(r, k)
        prefix = 0
        for j, layer in enumerate(lay.layers):
            if j > 0:
                assert layer.bit_count() == 1 << prefix.bit_count()
                assert shatters(lay.graph, layer, prefix) is not None
            prefix |= layer


def test_generalized_overflow():
    with pytest.raises(DomainError):
        construct_generalized_universal(3, 2)
    with pytest.raises(DomainError):
        construct_generalized_universal(4, 1)


def test_star_patterns():
    base = construct_universal_star(2, 1, (0, 0))
    assert base.graph.edge_count() == construct_generalized_universal(2, 1).graph.edge_count()
    star = construct_universal_star(2, 1, (1, 1))
    # the size-2 second layer becomes an edge; layer one is a single vertex
    assert star.graph.edge_count() == base.graph.edge_count() + 1
    mid = construct_universal_star(3, 1, (0, 1, 0))
    sizes = [m.bit_count() for m in mid.layers]
    assert sizes == [1, 2, 8]
    extra = mid.graph.edge_count() - construct_generalized_universal(3, 1).graph.edge_count()
    assert extra == 1  # only the size-2 layer turned into a clique


def test_star_pattern_validation():
    with pytest.raises(DomainError):
        construct_universal_star(2, 1, (0,))
    with pytest.raises(DomainError):
        construct_universal_star(2, 1, (0, 2))


# --- Sauer search ------------------------------------------------------------

def test_sauer_example():
    X = sauer_find_shattered(0b0111, {0, 0b001, 0b010, 0b100, 0b011}, 2)
    assert X == 0b011


def test_sauer_full_powerset():
    assert sauer_find_shattered(0b111, range(8), 3) == 0b111


def test_sauer_precondition_error():
    traces = [0, 1, 2, 4, 8, 8]  # five distinct traces
    assert sauer_bound(4, 2) == 5  # exactly at the bound
    with pytest.raises(DomainError, match="Sauer bound not met"):
        sauer_find_shattered(0b1111, traces, 2)
    assert sauer_find_shattered(0b1111, traces, 1) == 0b0001


def test_sauer_refuses_negative_k():
    with pytest.raises(DomainError, match="k = -1$"):
        sauer_find_shattered(0b111, [1, 2], -1)


def test_sauer_ground_capped():
    ground = (1 << (MAX_TRACE_GROUND + 1)) - 1  # 31 bits
    with pytest.raises(DomainError, match=f"larger than {MAX_TRACE_GROUND}"):
        sauer_find_shattered(ground, range(64), 1)


def test_sauer_trace_outside_ground():
    with pytest.raises(DomainError, match="not contained in the ground set"):
        sauer_find_shattered(0b0111, [0, 1, 2, 4, 0b1000], 1)


def test_sauer_random_soundness():
    rng = random.Random(0)
    for _ in range(50):
        g = rng.randint(3, 10)
        k = rng.randint(1, 3)
        bound = sauer_bound(g, k)
        if bound + 1 > 1 << g:
            continue
        m = rng.randint(bound + 1, min(1 << g, bound + 30))
        traces = frozenset(rng.sample(range(1 << g), m))
        X = sauer_find_shattered((1 << g) - 1, traces, k)
        assert X.bit_count() == k
        assert len({t & X for t in traces}) == 1 << k


# --- reverse shattering ------------------------------------------------------

def test_reverse_shatter_t1():
    uni = construct_universal(2)
    (A2,), B2 = aligned_reverse_shatter(uni.graph, [uni.A], uni.B, 1)
    assert A2.bit_count() == 1
    assert shatters(uni.graph, B2, A2) is not None


def test_reverse_shatter_t2():
    uni = construct_universal(4)
    (A2,), B2 = aligned_reverse_shatter(uni.graph, [uni.A], uni.B, 2)
    assert A2.bit_count() == 2
    assert B2.bit_count() == 4
    assert shatters(uni.graph, B2, A2) is not None


def test_reverse_shatter_t0():
    uni = construct_universal(1)
    (A2,), B2 = aligned_reverse_shatter(uni.graph, [uni.A], uni.B, 0)
    assert A2 == 0 and B2.bit_count() == 1
    assert shatters(uni.graph, B2, A2) is not None


def test_reverse_shatter_preconditions():
    uni = construct_universal(2)
    with pytest.raises(DomainError):
        aligned_reverse_shatter(uni.graph, [uni.A], uni.B, 2)  # |B| = 2 < 4
    G = graph_from_edges(4, [])
    with pytest.raises(DomainError):
        aligned_reverse_shatter(G, [0b0011], 0b1100, 1)  # nothing shattered


@pytest.mark.parametrize("call, message", [
    (lambda: construct_generalized_universal(0, 1), "need r >= 1 and k >= 1"),
    (lambda: aligned_reverse_shatter(construct_universal(2).graph, [], 0b110000, 1),
     "need r >= 1 and t >= 0"),
    (lambda: aligned_reverse_shatter(construct_universal(2).graph,
                                     [0b0011, 0b0110], 0b110000, 1),
     "the A_j and B must be pairwise disjoint"),
], ids=["no-layers", "no-sets", "sets-overlap"])
def test_universal_builders_refuse_empty_and_overlapping_inputs(call, message):
    with pytest.raises(DomainError, match=f"^{message}$"):
        call()


def test_aligned_reverse_r1_matches_reverse():
    # the plain flip by hand: in U(2), A = {0..3} and B = {4, 5}; B' is
    # {4, 5} labeled 0, 1, the origin face of bit 0 is {4} (label 0), and
    # its realizer is vertex 1, adjacent to exactly vertex 4
    uni = construct_universal(2)
    assert aligned_reverse_shatter(uni.graph, [uni.A], uni.B, 1) == \
        ([0b10], 0b110000)


def test_aligned_reverse_r2():
    # two disjoint 16-vertex groups, each shattering the same 4 core vertices
    core = [32, 33, 34, 35]
    edges = []
    for grp in range(2):
        for m in range(16):
            v = grp * 16 + m
            for j in range(4):
                if m >> j & 1:
                    edges.append((v, core[j]))
    G = graph_from_edges(36, edges)
    A_list = [(1 << 16) - 1, ((1 << 32) - 1) ^ ((1 << 16) - 1)]
    B = mask_of(core)
    (A1, A2), Bp = aligned_reverse_shatter(G, A_list, B, 1)
    assert A1.bit_count() == A2.bit_count() == 1
    assert shatters(G, Bp, A1 | A2) is not None


def test_aligned_reverse_too_small():
    uni = construct_universal(2)  # |B| = 2
    with pytest.raises(DomainError):
        aligned_reverse_shatter(uni.graph, [uni.A, 0], uni.B, 1)
