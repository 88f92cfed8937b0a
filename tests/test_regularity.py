import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hptools import (DomainError, bits, graph6_decode, graph_from_edges,
                     is_epsilon_regular, is_grey, mask_of, min_intra_edges_parts,
                     pair_density, random_graph, regularity, toy_bbs_parts,
                     toy_szemeredi_partition)
from hptools.graphs import part_masks

from conftest import complement, complete_graph, cycle_graph
from oracles import (naive_epsilon_regular, naive_min_intra_edges_bipartition,
                     naive_toy_szemeredi_partition)


def bipartite_complete(a, b):
    return graph_from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def bipartite_half_graph(h):
    """a_i ~ b_j iff i <= j: the standard irregular pair."""
    return graph_from_edges(2 * h, [(i, h + j) for i in range(h)
                                    for j in range(h) if i <= j])


def quasirandom_pair(seed=0):
    rng = random.Random(seed)
    edges = [(x, 8 + y) for x in range(8) for y in range(8) if rng.random() < 0.5]
    return graph_from_edges(16, edges), (1 << 8) - 1, ((1 << 16) - 1) ^ ((1 << 8) - 1)


# --- densities -----------------------------------------------------------------

def test_density_examples():
    G = bipartite_complete(3, 4)
    A, B = 0b0000111, 0b1111000
    assert pair_density(G, A, B) == 1
    E = graph_from_edges(7, [])
    assert pair_density(E, A, B) == 0
    M = graph_from_edges(8, [(i, 4 + i) for i in range(4)])
    assert pair_density(M, 0b00001111, 0b11110000) == Fraction(1, 4)


def test_density_complement():
    G = random_graph(9, 0.4, seed=2)
    A, B = 0b000011101, 0b111000010
    assert pair_density(G, A, B) + pair_density(complement(G), A, B) == 1


def test_density_errors():
    G = graph_from_edges(4, [])
    with pytest.raises(DomainError):
        pair_density(G, 0b0011, 0b0110)
    with pytest.raises(DomainError):
        pair_density(G, 0b0011, 0)


# --- regularity -----------------------------------------------------------------

def test_regular_complete_and_empty():
    G = bipartite_complete(4, 4)
    A, B = 0b00001111, 0b11110000
    assert is_epsilon_regular(G, A, B, Fraction(1, 100))
    E = graph_from_edges(8, [])
    assert is_epsilon_regular(E, A, B, Fraction(1, 100))


def test_regular_matching_fails():
    M = graph_from_edges(8, [(i, 4 + i) for i in range(4)])
    assert not is_epsilon_regular(M, 0b00001111, 0b11110000, Fraction(1, 4))


def test_regular_matches_naive_oracle():
    rng = random.Random(3)
    for _ in range(25):
        G = random_graph(8, rng.random(), seed=rng.random())
        A, B = 0b00001111, 0b11110000
        for eps in (Fraction(1, 4), Fraction(1, 2)):
            assert is_epsilon_regular(G, A, B, eps) == \
                naive_epsilon_regular(G, A, B, eps)


def test_regular_monotone_in_eps():
    rng = random.Random(4)
    for _ in range(15):
        G = random_graph(8, rng.random(), seed=rng.random())
        A, B = 0b00001111, 0b11110000
        verdicts = [is_epsilon_regular(G, A, B, eps)
                    for eps in (Fraction(1, 8), Fraction(1, 4), Fraction(1, 2),
                                Fraction(3, 4))]
        assert verdicts == sorted(verdicts)  # False before True only


@st.composite
def graphs(draw, max_n):
    n = draw(st.integers(1, max_n))
    return random_graph(n, draw(st.floats(0, 1)), seed=draw(st.integers(0, 10 ** 9)))


EPS = st.sampled_from([Fraction(1, 4), Fraction(1, 3), Fraction(1, 2),
                       Fraction(3, 4)])


@given(graphs(10), st.randoms(), EPS)
@settings(max_examples=60, deadline=None)
def test_regular_symmetric_in_sides(G, rnd, eps):
    # disjoint, nonempty sides of unequal sizes
    side = [rnd.randrange(3) for _ in range(G.n)]
    A = mask_of(v for v in range(G.n) if side[v] == 1)
    B = mask_of(v for v in range(G.n) if side[v] == 2)
    if not A or not B or A.bit_count() == B.bit_count():
        return
    assert is_epsilon_regular(G, A, B, eps) == is_epsilon_regular(G, B, A, eps)


@given(graphs(10), st.randoms(), EPS)
@settings(max_examples=60, deadline=None)
def test_regular_invariant_under_relabeling_within_sides(G, rnd, eps):
    # the toy partitioner shares one verdict among pairs of one pattern
    side = [rnd.randrange(3) for _ in range(G.n)]
    A = [v for v in range(G.n) if side[v] == 1]
    B = [v for v in range(G.n) if side[v] == 2]
    assume(A and B)
    image = list(range(G.n))  # vertex v of G becomes image[v]
    for S in (A, B):
        for v, w in zip(S, rnd.sample(S, len(S))):
            image[v] = w
    H = graph_from_edges(G.n, [(image[u], image[v]) for u, v in G.edges()])
    assert is_epsilon_regular(G, mask_of(A), mask_of(B), eps) == \
        is_epsilon_regular(H, mask_of(A), mask_of(B), eps)


@pytest.mark.parametrize("call, message", [
    (lambda: is_epsilon_regular(graph_from_edges(4, []), 0b0011, 0b0110,
                                Fraction(1, 2)), "pair sides overlap"),
    (lambda: is_epsilon_regular(graph_from_edges(4, []), 0b0011, 0,
                                Fraction(1, 2)), "pair sides must be nonempty"),
    (lambda: toy_szemeredi_partition(graph_from_edges(13, []), 2, Fraction(1, 2)),
     r"toy partitioner capped at n <= 12, m <= 4"),
    (lambda: toy_szemeredi_partition(graph_from_edges(8, []), 5, Fraction(1, 2)),
     r"toy partitioner capped at n <= 12, m <= 4"),
    (lambda: toy_szemeredi_partition(graph_from_edges(3, []), 4, Fraction(1, 2)),
     "more blocks than vertices"),
], ids=["regular-sides-overlap", "regular-side-empty", "toy-13-vertices",
        "toy-5-blocks", "toy-more-blocks-than-vertices"])
def test_regularity_refuses_pairs_and_sizes_outside_its_domain(call, message):
    with pytest.raises(DomainError, match=f"^{message}$"):
        call()


def test_regular_cap():
    G = graph_from_edges(26, [])
    with pytest.raises(DomainError):
        is_epsilon_regular(G, (1 << 13) - 1, ((1 << 26) - 1) ^ ((1 << 13) - 1),
                           Fraction(1, 2))


# --- grey pairs -----------------------------------------------------------------

def test_grey_examples():
    G = bipartite_complete(4, 4)
    A, B = 0b00001111, 0b11110000
    assert not is_grey(G, A, B, Fraction(1, 4), Fraction(1, 10))  # density 1
    E = graph_from_edges(8, [])
    assert not is_grey(E, A, B, Fraction(1, 4), Fraction(1, 10))


def test_grey_quasirandom_fixed_seed():
    # seed frozen after an oracle-verified search
    G, A, B = quasirandom_pair(seed=0)
    assert is_grey(G, A, B, Fraction(45, 100), Fraction(1, 10))


# --- toy partitioners -------------------------------------------------------------------

def test_toy_partitioner_balance_and_determinism():
    G = random_graph(8, 0.5, seed=11)
    labels = toy_szemeredi_partition(G, 4, Fraction(1, 2))
    sizes = sorted(m.bit_count() for m in part_masks(labels, 4))
    assert sizes == [2, 2, 2, 2]
    assert labels == toy_szemeredi_partition(G, 4, Fraction(1, 2))


@given(graphs(9), st.integers(1, 4), EPS)
@example(bipartite_half_graph(4), 4, Fraction(1, 3))
@example(random_graph(9, 0.5, seed=3), 4, Fraction(1, 4))  # 3 irregular pairs
@settings(max_examples=40, deadline=None)
def test_toy_partitioner_matches_labeling_scan(G, m, eps):
    m = min(m, G.n)
    assert toy_szemeredi_partition(G, m, eps) == \
        naive_toy_szemeredi_partition(G, m, eps)


def planted_graph(n, r, seed):
    """Random balanced r-partition, part 0 a clique, the other parts
    independent, cross pairs uniform."""
    rng = random.Random(seed)
    labels = [i % r for i in range(n)]
    rng.shuffle(labels)
    return graph_from_edges(n, [
        (u, v) for v in range(n) for u in range(v)
        if labels[u] == labels[v] == 0
        or labels[u] != labels[v] and rng.random() < 0.5])


def test_toy_bbs_parts_pinned_12_vertices():
    # labels of the m^n labeling scan (now naive_toy_szemeredi_partition),
    # too slow to rerun here at n = 12
    G = planted_graph(12, 2, seed=1)
    assert toy_szemeredi_partition(G, 4, Fraction(1, 2)) == \
        (0, 0, 0, 1, 1, 2, 1, 2, 3, 2, 3, 3)
    assert toy_bbs_parts(G, 2) == (0, 0, 0, 0, 0, 1, 0, 1, 1, 1, 1, 1)


def test_toy_bbs_parts_uses_all_parts():
    G = random_graph(9, 0.5, seed=13)
    labels = toy_bbs_parts(G, 2)
    assert set(labels) == {0, 1}


def test_toy_bbs_parts_judges_each_block_pair_once(monkeypatch):
    G = random_graph(9, 0.5, seed=13)
    labels = toy_bbs_parts(G, 2)
    calls = []

    def counted(G, A, B, eps, delta):
        calls.append((A, B))
        return is_grey(G, A, B, eps, delta)

    monkeypatch.setattr(regularity, "is_grey", counted)
    assert toy_bbs_parts(G, 2) == labels
    assert len(calls) == len(set(calls)) == 6  # the C(4, 2) pairs of 4 blocks


def test_toy_partitioner_judges_each_pattern_once(monkeypatch):
    G = random_graph(9, 0.5, seed=13)
    eps = Fraction(1, 2)
    labels = toy_szemeredi_partition(G, 4, eps)
    calls = []

    def counted(G, A, B, eps):
        calls.append((A, B))
        return is_epsilon_regular(G, A, B, eps)

    monkeypatch.setattr(regularity, "is_epsilon_regular", counted)
    assert toy_szemeredi_partition(G, 4, eps) == labels

    def pattern(A, B):
        """A's rows read on B's vertices in order, as a multiset."""
        return tuple(sorted(tuple(G.adj[u] >> w & 1 for w in bits(B))
                            for u in bits(A)))

    assert 0 < len(calls) == len({pattern(A, B) for A, B in calls})


def test_toy_bbs_parts_refuses_more_parts_than_blocks():
    with pytest.raises(DomainError, match="cannot group 4 toy blocks into 5 parts"):
        toy_bbs_parts(random_graph(8, 0.5, seed=1), 5)


@pytest.mark.parametrize("r", [0, -1])
def test_min_intra_edges_parts_refuses_fewer_than_one_part(r):
    # the greedy descent starts from labels v mod r
    with pytest.raises(DomainError, match="^need at least one part$"):
        min_intra_edges_parts(random_graph(6, 0.5, seed=2), r)


def test_min_intra_edges_bipartite_exact():
    G = bipartite_complete(4, 4)
    labels = min_intra_edges_parts(G, 2)
    masks = part_masks(labels, 2)
    intra = sum(sum((G.adj[v] & m).bit_count() for v in bits(m)) // 2
                for m in masks)
    assert intra == 0  # recovers the bipartition exactly


def disjoint_union(G, H):
    return graph_from_edges(G.n + H.n, G.edges() + [(u + G.n, v + G.n)
                                                    for u, v in H.edges()])


# perfbench's certify pool graphs with r = 2 and n = 13..16, whose default
# hint is this bisection
POOL_BISECTED = ("L@DOb@A?M[v_`_", "Me@R}lzPY~?~?QD_?", "NHOOYF?cAoK@GIMCA?o",
                 "Os}d|R]^|DdOAgx{oCNr~")


@given(graphs(16))
@example(complete_graph(16))  # every bisection ties
@example(graph_from_edges(16, []))
@example(bipartite_complete(8, 8))
@example(disjoint_union(complete_graph(8), complete_graph(8)))
@example(cycle_graph(16))
@example(graph6_decode(POOL_BISECTED[0].encode()))
@example(graph6_decode(POOL_BISECTED[1].encode()))
@example(graph6_decode(POOL_BISECTED[2].encode()))
@example(graph6_decode(POOL_BISECTED[3].encode()))
@settings(max_examples=100, deadline=None)
def test_min_intra_edges_bipartition_matches_vertexwise_count(G):
    assume(G.n >= 2)
    assert min_intra_edges_parts(G, 2) == naive_min_intra_edges_bipartition(G)
