import random

import networkx as nx
import pytest
from networkx.algorithms.isomorphism import GraphMatcher
from hypothesis import given, settings
from hypothesis import strategies as st

from hptools import (DomainError, Graph, bits, contains_induced,
                     enumerate_labeled, graph6_decode, graph6_encode,
                     graph_from_edges, induced_subgraph, mask_of, random_graph)
from hptools.graphs import (IsomorphismClasses, _degree_order, _extend, _pin_plan,
                            edgelist_decode, graph_from_lower,
                            greedy_maximal_clique, grow_rows, k_submasks,
                            max_clique, part_masks)

from conftest import (complement, complete_graph, cycle_graph, edgelist_encode,
                      path_graph)
from oracles import (edge_mask_of, graph_from_edge_mask, is_induced_embedding,
                     naive_contains_induced, naive_enumerate_labeled,
                     nx_induced_copies, ordered_copy, same_as_checked,
                     to_networkx)


def test_graph_from_edges_path():
    G = graph_from_edges(3, [(0, 1), (1, 2)])
    assert G.adj[1] == 0b101
    assert G.edge_count() == 2


def test_graph_from_edges_empty_and_complete():
    assert graph_from_edges(2, []).edge_count() == 0
    K4 = complete_graph(4)
    assert all(row.bit_count() == 3 for row in K4.adj)


def test_graph_from_edges_idempotent_duplicates():
    G = graph_from_edges(3, [(0, 1), (1, 0), (0, 1)])
    assert G.edge_count() == 1


def test_graph_from_edges_errors():
    with pytest.raises(DomainError):
        graph_from_edges(3, [(0, 3)])
    with pytest.raises(DomainError):
        graph_from_edges(3, [(1, 1)])
    with pytest.raises(DomainError):
        graph_from_edges(65, [])


@given(st.integers(0, 64).flatmap(lambda n: st.tuples(*[
    st.integers(0, (1 << v) - 1) for v in range(n)])))
@settings(max_examples=100, deadline=None)
def test_graph_from_lower_is_the_checked_graph_of_the_symmetric_rows(lower):
    n = len(lower)
    adj = [0] * n
    for v, row in enumerate(lower):
        for u in bits(row):
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    G = graph_from_lower(n, lower)
    assert G == Graph(n, tuple(adj)) and same_as_checked(G)


@pytest.mark.parametrize("n", [-1, 65])
def test_graph_from_lower_refuses_orders_outside_the_cap(n):
    with pytest.raises(DomainError, match=rf"^vertex count {n} outside 0\.\.64$"):
        graph_from_lower(n, [0] * max(n, 0))


@pytest.mark.parametrize("call, message", [
    (lambda: part_masks((0, 5), 2), "part label 5 out of range for r=2"),
    (lambda: induced_subgraph(complete_graph(3), 1 << 3),
     "vertex set not contained in the graph"),
    (lambda: edgelist_decode(""), "empty edge-list input"),
], ids=["part-label-past-r", "vertex-outside-graph", "empty-edge-list"])
def test_graph_helpers_refuse_arguments_outside_their_domain(call, message):
    with pytest.raises(DomainError, match=f"^{message}$"):
        call()


def test_induced_subgraph():
    K4 = complete_graph(4)
    assert induced_subgraph(K4, 0b0111).edge_count() == 3
    C4 = cycle_graph(4)
    P3 = induced_subgraph(C4, 0b0111)
    assert P3.edge_count() == 2 and P3.adj[1] == 0b101
    assert induced_subgraph(K4, 0).n == 0


def test_induced_subgraph_composes():
    G = random_graph(7, 0.5, seed=1)
    S = 0b1011011
    T_local = 0b01101  # positions within the first restriction
    sub = induced_subgraph(G, S)
    sub2 = induced_subgraph(sub, T_local)
    verts = list(bits(S))
    T_global = mask_of(verts[i] for i in bits(T_local))
    assert sub2 == induced_subgraph(G, T_global)


def test_contains_induced_examples(c5, k3, k4):
    assert contains_induced(c5, k3) is None
    assert contains_induced(k4, k3) is not None
    P4 = path_graph(4)
    phi = contains_induced(c5, P4)
    assert phi is not None
    for a in range(4):
        for b in range(a):
            assert (P4.adj[a] >> b & 1) == (c5.adj[phi[a]] >> phi[b] & 1)


def test_contains_induced_matches_naive_oracle():
    rng = random.Random(42)
    for _ in range(60):
        G = random_graph(rng.randint(1, 7), rng.random(), seed=rng.random())
        H = random_graph(rng.randint(1, 4), rng.random(), seed=rng.random())
        assert (contains_induced(G, H) is None) == \
            (naive_contains_induced(G, H) is None)


@st.composite
def graphs(draw, max_n: int, min_n: int = 0):
    """A graph on min_n..max_n vertices: edgeless, complete or arbitrary."""
    n = draw(st.integers(min_n, max_n))
    full = (1 << (n * (n - 1) // 2)) - 1
    emask = draw(st.one_of(st.just(0), st.just(full), st.integers(0, full)))
    return graph_from_edge_mask(n, emask)


@settings(max_examples=150, deadline=None)
@given(graphs(9), graphs(6))
def test_contains_induced_agrees_with_oracles(G, H):
    phi = contains_induced(G, H)
    found = naive_contains_induced(G, H) is not None
    assert (phi is not None) == found
    assert phi == ordered_copy(G, H)
    matcher = GraphMatcher(to_networkx(G), to_networkx(H))
    assert matcher.subgraph_is_isomorphic() == found  # networkx tests induced copies
    if phi is not None:
        assert is_induced_embedding(G, H, phi)


@settings(max_examples=150, deadline=None)
@given(graphs(8), graphs(5), st.booleans())
def test_all_copies_search_finds_every_networkx_copy(G, H, stop_at_first):
    # the found-callback mode of the one matcher kernel: every induced copy,
    # each once, or with a callback that stops, the witness of contains_induced
    copies = []

    def found(image):
        copies.append(tuple(image))
        return stop_at_first

    hit = _extend(_degree_order(H), [G.vertex_mask] * H.n, H.adj, G.adj,
                  [-1] * H.n, found)
    if stop_at_first:
        assert copies == ([contains_induced(G, H)] if hit else [])
    else:
        assert not hit
        assert len(copies) == len(set(copies))
        assert set(copies) == nx_induced_copies(G, H)


def test_pin_plan_orbits_match_networkx():
    for X in nx.graph_atlas_g():
        if X.number_of_nodes() > 6:
            break
        H = graph_from_edges(X.number_of_nodes(), X.edges())
        seqs = _pin_plan(H)
        # the degree order's first vertex starts its own orbit
        order = seqs[0] if seqs else ()
        assert order == tuple(sorted(range(H.n), key=lambda h: H.adj[h].bit_count(),
                                     reverse=True))
        assert all(seq[1:] == tuple(x for x in order if x != seq[0])
                   for seq in seqs)
        orbits = {frozenset(phi[a] for phi in GraphMatcher(X, X).isomorphisms_iter())
                  for a in X}
        reps = sorted((min(O, key=order.index) for O in orbits), key=order.index)
        assert [seq[0] for seq in seqs] == reps


def relabel(G: Graph, perm) -> Graph:
    return graph_from_edges(G.n, [(perm[u], perm[v]) for u, v in G.edges()])


def test_isomorphism_classes_of_the_atlas():
    # one graph per class on up to 7 vertices; C6 and two triangles, say,
    # share a degree profile
    atlas = [graph_from_edges(X.number_of_nodes(), X.edges())
             for X in nx.graph_atlas_g()]
    classes = IsomorphismClasses()
    for i, G in enumerate(atlas):
        assert classes.index(G) == i
    rng = random.Random(3)
    for i, G in enumerate(atlas):
        perm = list(range(G.n))
        rng.shuffle(perm)
        assert classes.index(relabel(G, perm)) == i
    assert classes.count == len(atlas) == 1253


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8), st.data())
def test_isomorphism_classes_match_networkx(n, data):
    # members are relabelings of a few base graphs, so classes repeat
    full = (1 << (n * (n - 1) // 2)) - 1
    bases = data.draw(st.lists(st.integers(0, full), min_size=1, max_size=3))
    members = [relabel(graph_from_edge_mask(n, data.draw(st.sampled_from(bases))),
                       data.draw(st.permutations(range(n))))
               for _ in range(data.draw(st.integers(2, 6)))]
    classes = IsomorphismClasses()
    index = [classes.index(G) for G in members]
    for i, G in enumerate(members):
        for j in range(i):
            assert (index[i] == index[j]) == nx.is_isomorphic(
                to_networkx(G), to_networkx(members[j]))
    assert classes.count == len(set(index))


def test_enumeration_counts(k3):
    assert sum(1 for _ in enumerate_labeled(3)) == 8
    assert sum(1 for _ in enumerate_labeled(
        3, lambda g: contains_induced(g, k3) is None)) == 7
    C4 = cycle_graph(4)
    assert sum(1 for _ in enumerate_labeled(
        4, lambda g: contains_induced(g, C4) is None)) == 61


@pytest.mark.parametrize("n", range(6))
def test_enumeration_complete(n):
    assert sum(1 for _ in enumerate_labeled(n)) == 1 << (n * (n - 1) // 2)


def test_enumeration_order():
    masks = [edge_mask_of(G) for G in enumerate_labeled(4)]
    assert masks == list(range(64))
    for n in range(6):
        assert list(enumerate_labeled(n)) == naive_enumerate_labeled(n)


@settings(max_examples=100, deadline=None)
@given(graphs(9), st.data())
def test_trusted_induced_subgraphs_are_valid_graphs(G, data):
    S = data.draw(st.integers(0, G.vertex_mask))
    sub = induced_subgraph(G, S)
    assert same_as_checked(sub)
    assert sub.n == S.bit_count()


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 5), st.sampled_from([None, 0, 1, 2]))
def test_trusted_enumerated_graphs_are_valid_graphs(n, degree):
    # the predicate keeps graphs whose vertex 0 has the drawn degree
    pred = None if degree is None else (
        lambda g: g.n > 0 and g.adj[0].bit_count() == degree)
    found = list(enumerate_labeled(n, pred))
    assert all(same_as_checked(G) for G in found)
    assert found == naive_enumerate_labeled(n, pred)


def kept_rows_of(seed: int, v: int, prefix: tuple) -> list[int]:
    """An ascending random set of backward rows for vertex v, drawn from the
    seed, v and the prefix rows 0..v-1."""
    rng = random.Random(f"{seed}/{v}/{prefix}")
    return sorted(rng.sample(range(1 << v), rng.randint(0, 1 << v)))


def naive_kept(seed: int, n: int) -> list[tuple]:
    """The rows of the graphs on [n], in ascending edge-bitmask order, whose
    every vertex v has a backward row in ``kept_rows_of`` of its prefix."""
    return [G.adj for G in naive_enumerate_labeled(n) if all(
        G.adj[v] & (1 << v) - 1 in kept_rows_of(
            seed, v, tuple(row & (1 << v) - 1 for row in G.adj[:v]))
        for v in range(n))]


@pytest.mark.parametrize("n", range(6))
@pytest.mark.parametrize("seed", range(3))
def test_grow_rows_keeps_what_keep_returns_in_order(n, seed):
    # keep runs once per prefix that every earlier vertex kept, with vertex
    # v not yet joined; the rows are the naive order's graphs, filtered
    calls = []

    def keep(v, rows):
        assert all(rows[u] >> v == 0 for u in range(v)) and not any(rows[v:])
        calls.append((v, tuple(rows[:v])))
        return kept_rows_of(seed, v, tuple(rows[:v]))

    assert [tuple(rows) for rows in grow_rows(n, keep)] == naive_kept(seed, n)
    assert sorted(calls) == sorted((v, adj) for v in range(n)
                                   for adj in naive_kept(seed, v))


def test_enumeration_cap():
    with pytest.raises(DomainError):
        next(enumerate_labeled(9))


def test_graph6_known_values(k3):
    assert graph6_encode(k3) == b"Bw"
    assert graph6_encode(graph_from_edges(1, [])) == b"@"
    assert graph6_decode(b"Bw") == k3


def test_graph6_roundtrip():
    rng = random.Random(7)
    for n in [0, 1, 5, 20, 62, 63, 64]:
        G = random_graph(n, 0.4, seed=rng.random())
        assert graph6_decode(graph6_encode(G)) == G


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 64), st.floats(0, 1), st.integers(0, 2**32))
def test_graph6_decode_agrees_with_networkx(n, p, seed):
    data = graph6_encode(random_graph(n, p, seed=seed))
    G = graph6_decode(data)
    assert same_as_checked(G)
    X = nx.from_graph6_bytes(data)
    assert G.n == X.number_of_nodes()
    assert sorted(G.edges()) == sorted((min(e), max(e)) for e in X.edges())


def test_graph6_encode_agrees_with_networkx():
    # a layout bug shared by the encoder and the decoder survives a round
    # trip; networkx's writer is the independent check
    rng = random.Random(6)
    for n in range(65):
        for p in (0.0, 0.3, 0.7, 1.0):
            G = random_graph(n, p, seed=rng.random())
            assert graph6_encode(G) + b"\n" == nx.to_graph6_bytes(to_networkx(G),
                                                                   header=False)


# every refusal of graph6_decode, word for word, in the order it checks them
GRAPH6_REFUSALS = [
    ("Bé", "graph6 data contains out-of-range bytes"),      # non-ASCII str
    (b"", "empty graph6 string"),
    (b" \n", "empty graph6 string"),
    (b"B" + bytes([127]), "graph6 data contains out-of-range bytes"),
    (bytes([30]), "graph6 data contains out-of-range bytes"),
    (b"B>", "graph6 data contains out-of-range bytes"),
    (b"~~??????", "graph6 order exceeds the 64-vertex cap"),
    (b"~~", "graph6 order exceeds the 64-vertex cap"),
    (b"~~" + bytes([30]), "graph6 data contains out-of-range bytes"),
    (b"~??", "malformed graph6 header"),
    (b"~", "malformed graph6 header"),
    (b"~?@@" + b"?" * 347, "graph6 order 65 exceeds the 64-vertex cap"),
    (b"~?@?", "graph6 bit vector truncated or overlong (0 data bytes, expected 336)"),
    (b"A", "graph6 bit vector truncated or overlong (0 data bytes, expected 1)"),
    (b"D", "graph6 bit vector truncated or overlong (0 data bytes, expected 2)"),
    (b"D?", "graph6 bit vector truncated or overlong (1 data bytes, expected 2)"),
    (b"Bwww", "graph6 bit vector truncated or overlong (3 data bytes, expected 1)"),
    (b"@?", "graph6 bit vector truncated or overlong (1 data bytes, expected 0)"),
    (b"B~", "graph6 padding bits are not zero"),
    (b"Bx", "graph6 padding bits are not zero"),
    (b"D?@", "graph6 padding bits are not zero"),
]


def test_graph6_malformed():
    for data, message in GRAPH6_REFUSALS:
        with pytest.raises(DomainError) as exc:
            graph6_decode(data)
        assert str(exc.value) == message, data


def test_edgelist_roundtrip():
    G = random_graph(9, 0.5, seed=11)
    assert edgelist_decode(edgelist_encode(G)) == G


def test_graph_validation_rejects_asymmetry():
    with pytest.raises(DomainError):
        Graph(2, (0b10, 0b00))


@given(st.integers(0, 10), st.randoms())
@settings(max_examples=40, deadline=None)
def test_symmetry_invariant(n, rnd):
    G = random_graph(n, rnd.random(), seed=rnd.randint(0, 10 ** 9))
    for i in range(n):
        for j in bits(G.adj[i]):
            assert G.adj[j] >> i & 1
        assert not G.adj[i] >> i & 1


def test_complement_involution():
    G = random_graph(8, 0.3, seed=5)
    assert complement(complement(G)) == G


def test_k_submasks_colex():
    subs = list(k_submasks(0b11011, 2))
    assert subs == sorted(subs)
    assert all(s.bit_count() == 2 and s & ~0b11011 == 0 for s in subs)
    assert len(subs) == 6


def test_max_clique_matches_brute_force():
    rng = random.Random(3)
    from itertools import combinations
    # n = 1 and edgeless graphs: the search alone finds the one-vertex clique
    graphs = [graph_from_edges(n, []) for n in (1, 2, 7)]
    graphs += [random_graph(rng.randint(1, 10), rng.random(), seed=rng.random())
               for _ in range(25)]
    assert max_clique(0, ()) == 0
    for G in graphs:
        n = G.n
        best = 1
        for sz in range(2, n + 1):
            for sub in combinations(range(n), sz):
                if all(G.adj[a] >> b & 1 for a, b in combinations(sub, 2)):
                    best = max(best, sz)
        clique = max_clique(n, G.adj)
        assert clique.bit_count() == best
        greedy = greedy_maximal_clique(n, G.adj)
        assert greedy.bit_count() <= best


def test_graph_from_edge_mask_roundtrip():
    for emask in range(64):
        G = graph_from_edge_mask(4, emask)
        assert edge_mask_of(G) == emask
