import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hptools import (BBSPartition, DomainError, bits, graph_from_edges,
                     greedy_turan_transversal, is_epsilon_regular, is_grey,
                     mask_of, min_intra_edges_parts, pair_density, random_graph,
                     regularity, toy_bbs_parts, toy_szemeredi_partition,
                     verify_bbs_partition)
from hptools.graphs import complement, part_masks

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


# --- BBS partitions ----------------------------------------------------------------

def test_bbs_single_part_empty_graph():
    G = graph_from_edges(6, [])
    bbs = BBSPartition(parts=(0,) * 6, blocks=(0b000111, 0b111000),
                       eps=Fraction(1, 2), delta=Fraction(1, 10),
                       gamma=Fraction(0))
    assert verify_bbs_partition(G, bbs).ok


def test_bbs_grey_excess_fails():
    # a dense quasirandom pair of blocks inside one part, zero grey budget
    G, A, B = quasirandom_pair(seed=0)
    bbs = BBSPartition(parts=(0,) * 16, blocks=(A, B),
                       eps=Fraction(45, 100), delta=Fraction(1, 10),
                       gamma=Fraction(0))
    rep = verify_bbs_partition(G, bbs)
    assert not rep.ok
    assert rep.grey_pairs_by_part[0] == [(0, 1)]


def test_bbs_straddling_block():
    G = graph_from_edges(4, [])
    bbs = BBSPartition(parts=(0, 0, 1, 1), blocks=(0b0110, 0b1001),
                       eps=Fraction(1, 2), delta=Fraction(1, 10),
                       gamma=Fraction(1))
    rep = verify_bbs_partition(G, bbs)
    assert not rep.ok
    assert any("straddles" in f for f in rep.structural_failures)


def test_bbs_relabel_invariance():
    G = random_graph(8, 0.5, seed=9)
    blocks = (0b00000011, 0b00001100, 0b00110000, 0b11000000)
    parts_a = (0, 0, 0, 0, 1, 1, 1, 1)
    parts_b = (1, 1, 1, 1, 0, 0, 0, 0)
    ra = verify_bbs_partition(G, BBSPartition(parts_a, blocks, Fraction(1, 2),
                                              Fraction(1, 10), Fraction(1, 4)))
    rb = verify_bbs_partition(G, BBSPartition(parts_b, blocks, Fraction(1, 2),
                                              Fraction(1, 10), Fraction(1, 4)))
    assert ra.ok == rb.ok


def test_bbs_block_size_imbalance():
    G = graph_from_edges(5, [])
    bbs = BBSPartition(parts=(0,) * 5, blocks=(0b00001, 0b11110),
                       eps=Fraction(1, 2), delta=Fraction(1, 10),
                       gamma=Fraction(1))
    rep = verify_bbs_partition(G, bbs)
    assert any("sizes differ" in f for f in rep.structural_failures)


@pytest.mark.parametrize("parts, blocks, failure", [
    ((0,) * 4, (0b0011, 0, 0b1100), "block 1 empty"),
    # block 1 straddles both parts, so no grey pair in a part contains it
    ((0, 0, 1, 1), (0b0011, 0b0110, 0b1100), "block 1 overlaps earlier blocks"),
    ((0,) * 4, (0b0011, 0b0100), "blocks do not cover the vertex set"),
    ((0,) * 6 + (1,) * 2, (0b11, 0b1100, 0b110000, 0b11000000),
     "parts do not hold an almost equal number of blocks"),
    ((0,) * 13, ((1 << 13) - 1,), "DomainError: block sizes capped at 12"),
])
def test_bbs_structural_failures(parts, blocks, failure):
    bbs = BBSPartition(parts, blocks, Fraction(1, 2), Fraction(1, 10), Fraction(1))
    try:
        rep = verify_bbs_partition(graph_from_edges(len(parts), []), bbs)
    except DomainError as exc:
        assert failure == f"DomainError: {exc}"
    else:
        assert not rep.ok and failure in rep.structural_failures


# --- greedy transversal ---------------------------------------------------------------

def grid_blocks(r, t, block_size):
    blocks, v = [], 0
    for _ in range(r):
        row = []
        for _ in range(t):
            row.append(mask_of(range(v, v + block_size)))
            v += block_size
        blocks.append(row)
    return blocks


def complete_multipartite(r, part_size):
    edges = []
    for i in range(r):
        for j in range(i + 1, r):
            for a in range(part_size):
                for b in range(part_size):
                    edges.append((i * part_size + a, j * part_size + b))
    return graph_from_edges(r * part_size, edges)


def test_turan_complete_host():
    for r, t in [(2, 1), (2, 2), (3, 1)]:
        bs = 2
        G = complete_multipartite(r, t * bs)
        blocks = grid_blocks(r, t, bs)
        chosen = greedy_turan_transversal(G, blocks, Fraction(1, 1000))
        assert chosen is not None and len(chosen) == r * t


def test_turan_one_missing_edge():
    G0 = complete_multipartite(2, 4)
    edges = [e for e in G0.edges() if e != (0, 4)]
    G = graph_from_edges(8, edges)
    blocks = grid_blocks(2, 1, 4)
    chosen = greedy_turan_transversal(G, blocks, Fraction(1, 16))
    assert chosen is not None
    (i1, j1, v1), (i2, j2, v2) = chosen
    assert G.adj[v1] >> v2 & 1


def test_turan_feasibility_is_exact_at_the_bound():
    # 23 of 25 cross edges meet (1 - 2/25) C(2,2) 5^2 = 23 exactly; a float
    # product reads 23.000000000000004 and refused this host
    G0 = complete_multipartite(2, 5)
    edges = [e for e in G0.edges() if e not in ((0, 5), (1, 6))]
    G = graph_from_edges(10, edges)
    chosen = greedy_turan_transversal(G, grid_blocks(2, 1, 5), Fraction(2, 25))
    assert chosen is not None
    (_, _, v1), (_, _, v2) = chosen
    assert G.adj[v1] >> v2 & 1


@given(st.integers(1, 3), st.integers(1, 2), st.integers(1, 3), st.floats(0, 1),
       st.integers(0, 10 ** 6))
@settings(max_examples=80, deadline=None)
def test_turan_transversal_is_complete_across_parts(r, t, bs, p, seed):
    blocks = grid_blocks(r, t, bs)
    G = random_graph(r * t * bs, p, seed=seed)
    chosen = greedy_turan_transversal(G, blocks, Fraction(1, 2),
                                      require_feasible=False)
    assume(chosen is not None)
    assert [(i, j) for i, j, _ in chosen] == [(i, j) for i in range(r)
                                              for j in range(t)]
    assert all(blocks[i][j] >> v & 1 for i, j, v in chosen)
    assert all(G.adj[u] >> v & 1 for (i, _, u), (i2, _, v)
               in combinations(chosen, 2) if i != i2)


def test_turan_infeasible_raises_and_honest_failure():
    # one block totally isolated: greedy must fail honestly
    G0 = complete_multipartite(2, 2)
    edges = [(u, v) for u, v in G0.edges() if 0 not in (u, v) and 1 not in (u, v)]
    G = graph_from_edges(4, edges)
    blocks = [[0b0011], [0b1100]]
    with pytest.raises(DomainError):
        greedy_turan_transversal(G, blocks, Fraction(1, 100))
    assert greedy_turan_transversal(G, blocks, Fraction(1, 100),
                                    require_feasible=False) is None


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


def test_toy_bbs_parts_refuses_more_parts_than_blocks():
    with pytest.raises(DomainError, match="cannot group 4 toy blocks into 5 parts"):
        toy_bbs_parts(random_graph(8, 0.5, seed=1), 5)


def test_min_intra_edges_bipartite_exact():
    G = bipartite_complete(4, 4)
    labels = min_intra_edges_parts(G, 2)
    masks = part_masks(labels, 2)
    intra = sum(sum((G.adj[v] & m).bit_count() for v in bits(m)) // 2
                for m in masks)
    assert intra == 0  # recovers the bipartition exactly


@given(graphs(12))
@settings(max_examples=100, deadline=None)
def test_min_intra_edges_bipartition_matches_vertexwise_count(G):
    assume(G.n >= 2)
    assert min_intra_edges_parts(G, 2) == naive_min_intra_edges_bipartition(G)
