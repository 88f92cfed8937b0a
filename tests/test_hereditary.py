import random
from functools import lru_cache
from itertools import product, zip_longest

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hptools import (ColouringNumber, DomainError, Graph, PropertySpec,
                     abt_bounds, colouring_number, count_hrv, enumerate_labeled,
                     enumerate_property, graph6_encode, graph_from_edges,
                     hrv_member, induced_subgraph, load_property, mask_of,
                     random_graph, speed, valid_hrv_patterns)
from hptools import hereditary
from hptools.graphs import k_submasks
from hptools.hereditary import _kept_rows

from conftest import complete_graph, cycle_graph, path_graph
from oracles import (brute_chi_c, brute_hrv, edge_mask_of, graph_from_edge_mask,
                     is_member, naive_enumerate_labeled, naive_pinned_copy,
                     nx_induced_copies, same_as_checked)


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


@lru_cache(maxsize=None)
def every_labeled_graph(n: int) -> list:
    return naive_enumerate_labeled(n)


# the forbidden graph of each property of the benchmark's census
CENSUS_FORBIDDEN = {
    "K3": complete_graph(3), "C4": cycle_graph(4), "P4": path_graph(4),
    "claw": graph_from_edges(4, [(0, 1), (0, 2), (0, 3)]),
    "K4": complete_graph(4), "C5": cycle_graph(5),
}


@pytest.mark.parametrize("sizes", [(5, 5), (4, 5)])
@pytest.mark.parametrize("name", CENSUS_FORBIDDEN)
def test_interleaved_walks_on_one_spec_share_its_tree(name, sizes):
    # two walks advanced in turn, each storing and reading tables while
    # the other is mid-walk: a table keyed or stored by the live row list
    # would show up as a wrong member in one of them
    spec = spec_of(CENSUS_FORBIDDEN[name])
    got = ([], [])
    for pair in zip_longest(*(enumerate_property(spec, n)
                              for n in sizes)):
        for out, G in zip(got, pair):
            if G is not None:
                out.append(G)
    for out, n in zip(got, sizes):
        assert out == [G for G in every_labeled_graph(n) if is_member(spec, G)]


def test_specs_built_twice_are_equal_whatever_their_trees_hold(k3, c4):
    grown, fresh = spec_of(k3, c4), spec_of(k3, c4)
    assert speed(grown, 5).count == speed(fresh, 5).count
    list(enumerate_property(grown, 6))
    assert len(grown.tree) > len(fresh.tree) > 0
    assert grown == fresh and hash(grown) == hash(fresh)
    assert repr(grown) == repr(fresh)
    assert {grown: 1}[fresh] == 1


def counted_searches(monkeypatch) -> list[int]:
    """The prefix size v of every ``_kept_rows`` search from here on."""
    searches = []
    search = hereditary._kept_rows

    def counted(forbidden, v, rows):
        searches.append(v)
        return search(forbidden, v, rows)

    monkeypatch.setattr(hereditary, "_kept_rows", counted)
    return searches


def test_a_walk_keeps_every_table_below_seven_vertices(k3, monkeypatch):
    # the first walk searches each prefix once and keeps every table, all
    # on at most 4 vertices; a second walk at n = 5 reads them all
    searches = counted_searches(monkeypatch)
    spec = spec_of(k3)
    assert speed(spec, 5).count == 388
    assert len(searches) == 1 + 1 + 2 + 7 + 41
    assert len(spec.tree) == 1 + 1 + 2 + 7 + 41
    del searches[:]
    assert speed(spec, 5).count == 388 and len(spec.tree) == 52
    assert searches == []


def test_no_walk_keeps_a_table_on_seven_vertices(monkeypatch):
    # P3-free graphs are disjoint unions of cliques, so |P_v| is Bell(v):
    # 1, 1, 2, 5, 15, 52, 203, 877 for v = 0..7.  The first n = 8 walk
    # searches every prefix and keeps those on 0..6 vertices; the second
    # searches again only the 877 prefixes on 7, one per member of P_7.
    searches = counted_searches(monkeypatch)
    spec = spec_of(path_graph(3))
    assert speed(spec, 8).count == 4140
    assert len(searches) == 1156
    assert len(spec.tree) == 279
    assert {len(prefix) for prefix in spec.tree} == set(range(7))
    del searches[:]
    assert speed(spec, 8).count == 4140 and len(spec.tree) == 279
    assert searches == [7] * 877


def test_the_tree_is_no_constructor_argument(k3):
    spec = spec_of(k3)
    with pytest.raises(TypeError):
        PropertySpec(spec.forbidden, {(): b"\x00"})


def cut_graph(order: int, emask: int) -> Graph:
    """The graph on ``order`` vertices with edge bitmask ``emask``, cut to
    the order."""
    return graph_from_edge_mask(order, emask % (1 << (order * (order - 1) // 2)))


FORBIDDEN = st.lists(st.builds(cut_graph, st.integers(1, 5),
                               st.integers(0, 1023)), min_size=1, max_size=3)


@settings(max_examples=60, deadline=None)
@given(FORBIDDEN, st.integers(0, 6))
@example([graph_from_edges(1, [])], 3)
@example([graph_from_edges(4, [(0, 1), (2, 3)]), graph_from_edges(3, [(0, 1)])], 6)
@example([graph_from_edges(5, [(0, 1)]), complete_graph(3)], 4)
def test_trusted_property_members_are_valid_graphs(forbidden, n):
    # members, and every member: the plain filter over all labeled graphs in
    # ascending edge-bitmask order, for 1..3 forbidden graphs on 1..5
    # vertices, the one-vertex graph, disconnected ones and ones above n
    spec = spec_of(*forbidden)
    members = list(enumerate_property(spec, n))
    assert all(same_as_checked(G) and is_member(spec, G) for G in members)
    assert members == [G for G in every_labeled_graph(n) if is_member(spec, G)]


def joined(G: Graph, row: int) -> Graph:
    """G with a new vertex G.n joined to the vertices of ``row``."""
    return Graph(G.n + 1, tuple(a | (row >> u & 1) << G.n for u, a in enumerate(G.adj))
                 + (row,))


@settings(max_examples=80, deadline=None)
@given(st.builds(cut_graph, st.integers(0, 5), st.integers(0, 1023)),
       FORBIDDEN, st.integers(0, 3))
def test_kept_rows_are_the_rows_that_complete_no_forbidden_graph(G, forbidden, pad):
    # brute force over the rows: vertex v = G.n may take row r iff no
    # forbidden graph has an induced copy through v in G joined by r
    v = G.n
    rows = list(G.adj) + [0] * pad  # zero rows past the prefix are never read
    assert _kept_rows(forbidden, v, rows) == [
        r for r in range(1 << v)
        if all(naive_pinned_copy(joined(G, r), F, v) is None for F in forbidden)]


# every graph on 1..5 vertices, one per isomorphism class
ATLAS_5 = [graph_from_edges(X.number_of_nodes(), X.edges())
           for X in nx.graph_atlas_g()[1:53]]


@settings(max_examples=150, deadline=None)
@given(st.builds(cut_graph, st.integers(0, 6), st.integers(0, 1 << 15)),
       st.sampled_from(ATLAS_5))
def test_orbit_pruned_table_marks_the_rows_of_every_vertex(G, F):
    # one x per orbit of Aut(F) marks what putting v on each vertex x of F
    # marks, each copy of F - x from networkx
    v = G.n
    marked = set()
    for x in range(F.n):
        below = [h for h in range(F.n) if h != x]  # F - x relabels these
        for image in nx_induced_copies(G, induced_subgraph(F, F.vertex_mask ^ 1 << x)):
            S = mask_of(image)
            P = mask_of(image[i] for i, h in enumerate(below) if F.adj[x] >> h & 1)
            marked |= {r for r in range(1 << v) if r & S == P}
    assert _kept_rows((F,), v, list(G.adj)) == sorted(set(range(1 << v)) - marked)


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
    assert count_hrv(0, (0,)) == 1
    assert count_hrv(0, (1, 0)) == 1
    assert count_hrv(1, (1,)) == 1
    assert count_hrv(1, (0, 1, 1)) == 1
    assert count_hrv(2, (0,)) == 1
    assert count_hrv(2, (0, 0)) == 2
    assert count_hrv(3, (0, 0)) == 7


@pytest.mark.parametrize("v", [v for r in (1, 2, 3, 4) for v in product((0, 1), repeat=r)])
def test_count_hrv_matches_brute_force(v):
    # every pattern, from n = 0 and n < r up to n = 5 (n = 4 at r = 4)
    for n in range(6 if len(v) <= 3 else 5):
        assert count_hrv(n, v) == sum(
            brute_hrv(G, v) for G in every_labeled_graph(n)), n


def test_count_hrv_counts_labeled_bipartite_graphs():
    # OEIS A047864: labeled bipartite graphs on n nodes
    assert [count_hrv(n, (0, 0)) for n in range(8)] == [
        1, 1, 2, 7, 41, 376, 5177, 103237]


@pytest.mark.parametrize("v", [v for r in (1, 2, 3) for v in product((0, 1), repeat=r)])
def test_count_hrv_accepts_each_graph_by_its_own_verdict(monkeypatch, v):
    # graph by graph, not only in total, in the scan's own order: every
    # graph is read from the table built at its prefix's first graph
    scanned, accepted = [], []

    def scan(n, predicate):
        for G in enumerate_labeled(n):
            scanned.append(G)
            if predicate(G):
                accepted.append(G)
                yield G

    monkeypatch.setattr(hereditary, "enumerate_labeled", scan)
    assert count_hrv(5, v) == len(accepted)
    assert len(scanned) == 1 << 10
    assert accepted == [G for G in scanned if brute_hrv(G, v)]


@pytest.mark.parametrize("n, v, needle", [
    (1, (2,), "entries must be 0 or 1"),
    (2, (0, -1), "entries must be 0 or 1"),
    (1, (0.5,), "entries must be 0 or 1"),
    (1, ("1",), "entries must be 0 or 1"),
    (0, (), r"length must be 1\.\.8"),
    (9, (0,) * 9, r"length must be 1\.\.8"),
])
def test_bad_patterns_are_refused_before_scanning(monkeypatch, n, v, needle):
    # (2,) once read as (0,) here, and a truthiness test would read it as (1,);
    # the pattern is checked first at every order, 0 and 9 (past the
    # enumeration cap) included
    def refuse(*args):
        raise AssertionError("scanned before checking the pattern")

    monkeypatch.setattr(hereditary, "enumerate_labeled", refuse)
    with pytest.raises(DomainError, match=needle):
        count_hrv(n, v)
    with pytest.raises(DomainError, match=needle):
        hrv_member(complete_graph(3), v)


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
            lower = max(count_hrv(n, v) for v in patterns)
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
