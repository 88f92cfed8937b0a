import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hptools import (ColouringNumber, DomainError, PropertySpec,
                     abt_bounds, colouring_number, count_hrv,
                     enumerate_property, graph6_encode, graph_from_edges,
                     hrv_member, induced_subgraph, load_property, random_graph,
                     speed, valid_hrv_patterns)
from hptools.graphs import k_submasks

from conftest import complete_graph, cycle_graph, path_graph
from oracles import (brute_chi_c, brute_hrv, edge_mask_of, graph_from_edge_mask,
                     is_member, naive_enumerate_labeled, same_as_checked)


def spec_of(*graphs) -> PropertySpec:
    return PropertySpec.from_graphs(list(graphs))


# --- PropertySpec construction ----------------------------------------------

def test_spec_dedups_isomorphic():
    P3a = graph_from_edges(3, [(0, 1), (1, 2)])
    P3b = graph_from_edges(3, [(0, 2), (2, 1)])
    assert len(spec_of(P3a, P3b).forbidden) == 1


def test_spec_enforces_minimality():
    K3 = complete_graph(3)
    K4 = complete_graph(4)   # redundant: contains an induced K3
    assert spec_of(K3, K4).forbidden == (K3,)


def test_spec_rejects_bad_orders():
    with pytest.raises(DomainError):
        spec_of(graph_from_edges(0, []))
    with pytest.raises(DomainError):
        spec_of(random_graph(11, 0.5, seed=1))
    # built directly, a spec forbidding the empty graph once had 0 members
    # on 0 vertices but 2 on 2, though every graph contains the empty graph
    with pytest.raises(DomainError, match="1..10 vertices"):
        PropertySpec((graph_from_edges(0, []),))


def test_spec_file_roundtrip(tmp_path):
    spec = spec_of(complete_graph(3), cycle_graph(4))
    path = tmp_path / "spec.g6"
    path.write_bytes(b"".join(graph6_encode(F) + b"\n" for F in spec.forbidden))
    assert load_property(path) == spec


# --- membership ----------------------------------------------------------------

def test_is_member_examples(k3, k4, c4, c5):
    assert is_member(spec_of(k3), c5)
    assert not is_member(spec_of(k3), k4)
    assert is_member(spec_of(c4), k4)


def test_hereditary_closure_sampled():
    rng = random.Random(5)
    spec = spec_of(complete_graph(3), path_graph(4))
    for _ in range(40):
        G = random_graph(rng.randint(1, 6), rng.random(), seed=rng.random())
        if not is_member(spec, G):
            continue
        for S in range(1 << G.n):
            assert is_member(spec, induced_subgraph(G, S))


# --- speed -----------------------------------------------------------------------

def test_speed_known_values(k3, c4):
    assert all(speed(spec_of(complete_graph(2)), n).count == 1 for n in range(7))
    assert speed(spec_of(k3), 3).count == 7
    assert speed(spec_of(c4), 4).count == 61


def test_speed_degenerate_spec():
    one = graph_from_edges(1, [])
    assert speed(spec_of(one), 3).count == 0


def test_the_empty_graph_is_the_one_member_on_zero_vertices(k3):
    # no forbidden graph has 0 vertices, so none is contained in it
    for forbidden in (graph_from_edges(1, []), complete_graph(2), k3):
        assert speed(spec_of(forbidden), 0).count == 1
    assert [G.n for G in enumerate_property(spec_of(k3), 0)] == [0]


def test_pruned_enumeration_matches_plain_filter(k3, c4):
    rng = random.Random(9)
    specs = [spec_of(random_graph(rng.randint(2, 4), rng.random(), seed=rng.random()))
             for _ in range(6)]
    three_k1 = graph_from_edges(3, [])
    specs += [spec_of(three_k1), spec_of(k3, three_k1), spec_of(c4, path_graph(4))]
    for spec in specs:
        for n in range(6):
            plain = [edge_mask_of(G) for G in
                     naive_enumerate_labeled(n, lambda g: is_member(spec, g))]
            pruned = [edge_mask_of(G) for G in enumerate_property(spec, n)]
            assert plain == pruned  # same graphs, same canonical order


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 4), st.integers(0, 63)), min_size=1,
                max_size=2), st.integers(0, 5))
def test_trusted_property_members_are_valid_graphs(forbidden, n):
    # each forbidden graph is (order, edge bitmask), the mask cut to the order
    spec = spec_of(*(graph_from_edge_mask(m, e % (1 << (m * (m - 1) // 2)))
                     for m, e in forbidden))
    for G in enumerate_property(spec, n):
        assert same_as_checked(G) and is_member(spec, G)


def test_speed_monotone_in_forbidden_family(k3, c4):
    small = spec_of(k3)
    bigger = spec_of(k3, c4)
    for n in range(6):
        assert speed(bigger, n).count <= speed(small, n).count


def test_entropy_range(k3):
    row = speed(spec_of(k3), 5)
    assert 0.0 <= row.entropy <= 1.0


# --- H(r,v) ---------------------------------------------------------------------

def test_hrv_examples(c4, c5):
    assert hrv_member(c4, (0, 0)) is not None
    assert hrv_member(c4, (0, 1)) is None
    assert hrv_member(c5, (1, 1)) is None


def test_hrv_labeling_is_valid(c4):
    labels = hrv_member(c4, (0, 0))
    for u in range(4):
        for v in range(u):
            if c4.adj[u] >> v & 1:
                assert labels[u] != labels[v]


def test_hrv_matches_brute_force():
    rng = random.Random(1)
    for _ in range(50):
        G = random_graph(rng.randint(1, 5), rng.random(), seed=rng.random())
        r = rng.randint(1, 3)
        v = tuple(rng.randint(0, 1) for _ in range(r))
        assert (hrv_member(G, v) is not None) == brute_hrv(G, v)


def test_hrv_monotone_under_induced_subgraphs():
    rng = random.Random(2)
    v = (0, 1)
    for _ in range(30):
        G = random_graph(rng.randint(1, 6), rng.random(), seed=rng.random())
        if hrv_member(G, v) is None:
            continue
        for S in k_submasks(G.vertex_mask, max(G.n - 1, 0)):
            assert hrv_member(induced_subgraph(G, S), v) is not None


def test_count_hrv_examples():
    assert count_hrv(2, 1, (0,)) == 1
    assert count_hrv(2, 2, (0, 0)) == 2
    assert count_hrv(3, 2, (0, 0)) == 7


# --- colouring number ------------------------------------------------------------

def test_colouring_numbers(k3, k4, c4):
    assert colouring_number(spec_of(complete_graph(2))).value == 1
    assert colouring_number(spec_of(k3)).value == 2
    assert colouring_number(spec_of(k4)).value == 3
    assert colouring_number(spec_of(c4)).value == 2


def test_colouring_number_matches_brute_force(k3, c4):
    for graphs in ([complete_graph(2)], [k3], [c4], [k3, c4]):
        spec = spec_of(*graphs)
        assert colouring_number(spec, r_max=5).value == \
            brute_chi_c(spec.forbidden, 5)


def test_colouring_number_permutation_invariance(k3, c4):
    # only the number of ones in v matters
    from itertools import permutations
    for F in (k3, c4):
        for r in (2, 3):
            for ones in range(r + 1):
                base = (1,) * ones + (0,) * (r - ones)
                results = {hrv_member(F, p) is not None
                           for p in set(permutations(base))}
                assert len(results) == 1


def test_colouring_number_edge_cases():
    with pytest.raises(DomainError):
        colouring_number(PropertySpec(()))
    one = graph_from_edges(1, [])
    chi = colouring_number(spec_of(one))
    assert chi.value == 0 and chi.degenerate
    # empty graphs forbidden at every r: the capped flag fires
    chi2 = colouring_number(spec_of(complete_graph(2)), r_max=3)
    assert chi2.value == 1 and not chi2.capped
    # r_max outside 1..8 is refused, not read as r_max = 1; reaching r_max
    # is capped
    k3 = spec_of(complete_graph(3))
    for r_max in (0, -3, 9):
        with pytest.raises(DomainError, match=r"r_max must lie in 1\.\.8"):
            colouring_number(k3, r_max=r_max)
    assert colouring_number(k3, r_max=1) == ColouringNumber(1, True, False, (0,))
    assert colouring_number(k3, r_max=2) == ColouringNumber(2, True, False, (0, 0))
    assert colouring_number(k3, r_max=3) == ColouringNumber(2, False, False, (0, 0))


def test_observation8_finite_inequality(k3, c4):
    for spec in (spec_of(k3), spec_of(c4)):
        patterns = valid_hrv_patterns(spec)
        for n in range(1, 5):
            lower = max(count_hrv(n, r, v) for r, v in patterns)
            assert speed(spec, n).count >= lower


# --- bound envelope ---------------------------------------------------------------

def test_abt_bounds_examples():
    lo, hi = abt_bounds(10, 2, 0.5)
    assert lo == 25.0
    assert hi == pytest.approx(25 + 10 ** 1.5)
    assert abt_bounds(7, 1, 0.5)[0] == 0.0
    assert abt_bounds(4, 2, 1) == (4.0, 8.0)


def test_abt_bounds_validation():
    with pytest.raises(DomainError):
        abt_bounds(5, 0, 0.5)
    with pytest.raises(DomainError):
        abt_bounds(5, 2, 0.0)
