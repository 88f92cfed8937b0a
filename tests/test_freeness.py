import random
from fractions import Fraction
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hptools import freeness
from hptools import (BipGraph, DomainError, SparseningOutput, StepError,
                     bipgraph_decode, count_nonshattering_attachments,
                     count_sparse_bipartite, count_uk_free_bipartite,
                     distinguishing_set, extract_clone_classes, find_uk_copy,
                     graph_from_edges, mask_of, max_separated_subset,
                     planted_clone_instance, random_bipgraph, random_graph,
                     separated_subset_ceiling, shatters, trace_count_check)
from hptools.graphs import MAX_EXACT_CLIQUE, bits
from hptools.universal import construct_universal

from conftest import bipgraph_encode, bipgraph_to_graph
from oracles import (brute_max_far_subset, clone_class_failures,
                     multiset_count_uk_free, naive_uk_copy,
                     nonshattering_by_inclusion_exclusion, numpy_count_uk_free,
                     realizes_every_trace, rows_hold_uk, search_count_uk_free)


# --- BipGraph ----------------------------------------------------------------

@given(st.integers(0, 6), st.integers(0, 6), st.floats(0, 1),
       st.integers(0, 10 ** 6))
@settings(max_examples=120, deadline=None)
def test_bipgraph_text_roundtrip(m, n, p, seed):
    # n = 0 writes m empty rows, which once read back as no rows at all
    bg = random_bipgraph(m, n, p, seed=seed)
    assert bipgraph_decode(bipgraph_encode(bg)) == bg


def test_bipgraph_text_errors():
    with pytest.raises(DomainError):
        bipgraph_decode("2 2\n01\n")
    with pytest.raises(DomainError):
        bipgraph_decode("1 3\n012\n")


def test_bipgraph_cols():
    bg = BipGraph(2, 3, (0b101, 0b011))
    assert bg.cols() == (0b11, 0b10, 0b01)


def test_bipgraph_to_graph_is_bipartite():
    bg = random_bipgraph(3, 4, 0.6, seed=2)
    G = bipgraph_to_graph(bg)
    for a in range(3):
        assert G.adj[a] & 0b111 == 0          # no A-A edges
    for b in range(3, 7):
        assert G.adj[b] >> 3 == 0             # no B-B edges


# --- find_uk_copy --------------------------------------------------------------

def test_uk_copy_path_example():
    P3 = graph_from_edges(3, [(0, 1), (1, 2)])
    found = find_uk_copy(P3, 1)
    assert found == (0b110, 0b001)  # A = {1,2}, B = {0}: 1~0, 2 not~0


def test_uk_copy_empty_graph():
    G = graph_from_edges(6, [])
    for k in (1, 2):
        assert find_uk_copy(G, k) is None


def test_uk_copy_planted_u2():
    # embed U(2) (6 vertices) in an 8-vertex host with noise elsewhere
    uni = construct_universal(2)
    edges = uni.graph.edges() + [(6, 7), (6, 0)]
    G = graph_from_edges(8, edges)
    found = find_uk_copy(G, 2)
    assert found is not None
    A, B = found
    assert shatters(G, A, B) is not None


def test_uk_copy_matches_naive_all_pairs_oracle():
    rng = random.Random(8)
    for _ in range(40):
        n = rng.randint(3, 8)
        from hptools import random_graph
        G = random_graph(n, rng.random(), seed=rng.random())
        for k in (1, 2):
            assert (find_uk_copy(G, k) is not None) == naive_uk_copy(G, k)


def test_uk_copy_caps():
    from hptools import random_graph
    with pytest.raises(DomainError):
        find_uk_copy(random_graph(41, 0.5, seed=0), 1)
    with pytest.raises(DomainError):
        find_uk_copy(random_graph(5, 0.5, seed=0), 5)


# --- exact counting ------------------------------------------------------------

def test_count_free_trivial_values():
    assert count_uk_free_bipartite(1, 1, 1, "whole") == 2
    assert count_uk_free_bipartite(2, 2, 2, "whole") == 16


def test_count_free_golden_3x3():
    # frozen after an oracle run over all 512 graphs with find_uk_copy
    assert count_uk_free_bipartite(3, 3, 2, "whole") == 344
    assert count_uk_free_bipartite(3, 3, 2, "cross") == 512


def test_count_free_matches_definition_oracle_small():
    for m, n in [(2, 2), (2, 3), (3, 3), (1, 5)]:
        for k in (1, 2):
            for mode in ("whole", "cross"):
                assert count_uk_free_bipartite(m, n, k, mode) == \
                    numpy_count_uk_free(m, n, k, mode)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 16).flatmap(
           lambda m: st.tuples(st.just(m), st.integers(0, 16 // m if m else 16))),
       st.integers(1, 3), st.sampled_from(["whole", "cross"]))
def test_count_free_matches_multiset_oracle(shape, k, mode):
    m, n = shape
    assert count_uk_free_bipartite(m, n, k, mode) == \
        multiset_count_uk_free(m, n, k, mode)


@settings(deadline=None)
@given(st.integers(1, 25).flatmap(
           lambda m: st.tuples(st.just(m), st.integers(1, 25 // m))),
       st.integers(1, 4))
def test_count_free_whole_mode_is_symmetric(shape, k):
    m, n = shape
    assert count_uk_free_bipartite(m, n, k, "whole") == \
        count_uk_free_bipartite(n, m, k, "whole")


@pytest.mark.parametrize("mode", ["whole", "cross"])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_count_free_matches_the_full_search_to_the_cap(k, mode):
    # the numpy and multiset oracles stop at 16 cells; the search from the
    # root, which visits every node, reaches every shape within the cap
    for m in range(26):
        for n in range(25 // m + 1 if m else 26):
            assert count_uk_free_bipartite(m, n, k, mode) == \
                search_count_uk_free(m, n, k, mode), (m, n)


@settings(max_examples=300, deadline=None)
@given(st.data(), st.integers(1, 3))
def test_column_flips_keep_the_cross_verdict(data, k):
    # flipping the columns of u permutes the traces on every k-set of B, so
    # the rows and the rows XOR u hold a cross copy alike: cross mode counts
    # the free sets of row values through those that hold 0
    m = data.draw(st.integers(1, 16))
    n = data.draw(st.integers(1, 16 // m))
    rows = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=m, max_size=m))
    u = data.draw(st.integers(0, (1 << n) - 1))
    assert rows_hold_uk(rows, n, k, "cross") == \
        rows_hold_uk([row ^ u for row in rows], n, k, "cross")


def test_column_flips_can_change_a_whole_verdict():
    # rows 0000 and 0011 hold no U(2); flipped on columns 0 and 2 they read
    # 0101 and 0110, whose columns 01, 10, 11, 00 trace A's 2-set: whole
    # mode reads the columns, so it has no such symmetry
    rows, u = (0b0000, 0b0011), 0b0101
    assert not rows_hold_uk(rows, 4, 2, "whole")
    assert rows_hold_uk([row ^ u for row in rows], 4, 2, "whole")
    assert not rows_hold_uk([row ^ u for row in rows], 4, 2, "cross")


# (m, n, k): whole, cross
COUNT_PINS = {(4, 5, 2): (90_946, 546_496), (5, 4, 2): (90_946, 339_136),
              (5, 5, 2): (833_432, 6_465_152), (8, 3, 3): (16_736_896, 16_736_896)}


@pytest.mark.parametrize("shape", COUNT_PINS, ids=lambda s: "%dx%d-k%d" % s)
def test_count_free_pins(shape):
    counts = tuple(count_uk_free_bipartite(*shape, mode) for mode in ("whole", "cross"))
    assert counts == COUNT_PINS[shape]
    if shape[:2] in ((4, 5), (5, 4)):
        assert counts == tuple(multiset_count_uk_free(*shape, mode)
                               for mode in ("whole", "cross"))


def test_count_free_closed_form_when_no_k_set_can_be_shattered():
    # 2 rows cannot trace the 4 patterns of a 2-set of B (cross), nor 1 row
    # its 3 nonempty ones (whole), and 1 A vertex holds no 2-set
    assert count_uk_free_bipartite(2, 12, 2, "cross") == 1 << 24
    assert count_uk_free_bipartite(1, 22, 2, "whole") == 1 << 22


def test_count_free_monotone_in_k():
    # any U(k+1) copy contains a U(k) copy, so freeness relaxes with k
    for m, n in [(3, 3), (4, 4)]:
        for mode in ("whole", "cross"):
            assert count_uk_free_bipartite(m, n, 2, mode) <= \
                count_uk_free_bipartite(m, n, 3, mode)


def test_count_free_caps():
    with pytest.raises(DomainError):
        count_uk_free_bipartite(6, 5, 2, "whole")
    with pytest.raises(DomainError):
        count_uk_free_bipartite(2, 2, 2, "sideways")


# --- trace counts ----------------------------------------------------------------

def test_trace_counts_constant_rows():
    bg = BipGraph(4, 6, (0b10101,) * 4)
    rep = trace_count_check(bg, [0b000111, 0b111000], 2)
    assert all(r.trace_count == 1 for r in rep)


def test_trace_counts_k1():
    # U(1)-freeness in cross mode forces every column constant over A
    bg = BipGraph(3, 4, (0b0011, 0b0011, 0b0011))
    rep = trace_count_check(bg, [0b0011, 0b1100], 1)
    assert all(r.trace_count <= 1 for r in rep)


def test_trace_counts_rejection_sampled():
    rng = random.Random(12)
    found = 0
    while found < 10:
        bg = random_bipgraph(5, 6, 0.25, seed=rng.random())
        try:
            rep = trace_count_check(bg, [0b000111, 0b111000], 2)
        except DomainError:
            continue
        found += 1
        for r in rep:
            assert r.trace_count <= r.sauer_ceiling == 4  # 1 + C(3,1)


def test_trace_counts_rejects_nonfree():
    uni = construct_universal(2)  # rows realize every trace on B
    bg = BipGraph(4, 2, (0b00, 0b01, 0b10, 0b11))
    with pytest.raises(DomainError):
        trace_count_check(bg, [0b11], 2)


@given(st.integers(1, 6), st.integers(1, 5), st.integers(1, 2), st.floats(0, 1),
       st.integers(0, 10 ** 6))
@settings(max_examples=150, deadline=None)
def test_trace_counts_reject_exactly_the_cross_copies(m, n, k, p, seed):
    bg = random_bipgraph(m, n, p, seed=seed)
    parts = ((1 << m) - 1, ((1 << n) - 1) << m)  # A first, then B
    try:
        trace_count_check(bg, [(1 << n) - 1], k)
    except DomainError as exc:
        assert str(exc) == "host is not U(k)-free in cross mode"
        assert naive_uk_copy(bipgraph_to_graph(bg), k, parts)
    else:
        assert not naive_uk_copy(bipgraph_to_graph(bg), k, parts)


@pytest.mark.parametrize("k", [-1, 0, 5])
def test_trace_counts_refuse_a_level_outside_the_cap(k):
    bg = BipGraph(2, 4, (0, 0))
    with pytest.raises(DomainError, match="universal level capped at 4"):
        trace_count_check(bg, [0b1111], k)


def test_count_free_refuses_a_level_above_4():
    with pytest.raises(DomainError, match="^universal level capped at 4$"):
        count_uk_free_bipartite(2, 2, 5)


def test_trace_counts_block_validation():
    bg = BipGraph(2, 4, (0, 0))
    with pytest.raises(DomainError):
        trace_count_check(bg, [0b0011], 2)        # not a cover
    with pytest.raises(DomainError):
        trace_count_check(bg, [0b0111, 0b1100], 2)  # overlap


# --- non-shattering attachments ---------------------------------------------------

def test_nonshattering_examples():
    assert count_nonshattering_attachments(1, 2) == (2, 1, 2)
    assert count_nonshattering_attachments(2, 1) == (4, 3, 12)
    exact, printed, corrected = count_nonshattering_attachments(2, 4)
    assert corrected == 324 and exact <= corrected


def test_nonshattering_matches_inclusion_exclusion():
    for a in (1, 2, 3):
        for n in (1, 2, 3, 4):
            exact, _, corrected = count_nonshattering_attachments(a, n)
            assert exact == nonshattering_by_inclusion_exclusion(a, n)
            assert exact <= corrected


def test_nonshattering_printed_bound_fails_small():
    exact, printed, _ = count_nonshattering_attachments(1, 2)
    assert exact > printed  # the missing 2^a factor, visible already here


# --- sparse bipartite counts -------------------------------------------------------

def test_sparse_counts():
    assert count_sparse_bipartite(3, 0.1).count == 1  # delta^2 n^2 < 1
    assert count_sparse_bipartite(2, 0.5).count == 5
    res = count_sparse_bipartite(4, 0.25)
    assert res.count == 17 and res.bound == 16.0  # ceiling fails at toy scale


@pytest.mark.parametrize("n, delta, message", [
    (-3, 0.5, "side size must lie in 0..5"),
    (6, 0.5, "side size must lie in 0..5"),
    (3, float("nan"), "delta must be a finite number"),
    (3, float("inf"), "delta must be a finite number"),
    (3, float("-inf"), "delta must be a finite number"),
    (3, -0.5, "delta must be nonnegative"),
    (3, 200, r"ceiling 2\^\(delta n\^2\) exceeds the float range"),
    (3, 1e300, r"ceiling 2\^\(delta n\^2\) exceeds the float range"),
    (3, None, "delta must be a finite number"),
])
def test_sparse_counts_refuse_bad_sizes_and_deltas(n, delta, message):
    with pytest.raises(DomainError, match=message):
        count_sparse_bipartite(n, delta)


# --- separated subsets --------------------------------------------------------------

def test_separated_identity_matching():
    bg = BipGraph(4, 4, (1, 2, 4, 8))
    assert max_separated_subset(bg, "A", 2) == 0b1111
    assert max_separated_subset(bg, "A", 3).bit_count() == 1


def test_separated_exact_matches_brute_force():
    rng = random.Random(4)
    for _ in range(20):
        bg = random_bipgraph(rng.randint(1, 7), rng.randint(1, 7),
                             rng.random(), seed=rng.random())
        for side, vecs in (("A", bg.rows), ("B", bg.cols())):
            x = rng.randint(1, 4)
            exact = max_separated_subset(bg, side, x)
            assert exact.bit_count() == brute_max_far_subset(list(vecs), x)
    # above MAX_EXACT_CLIQUE vectors the subset is greedy: pairwise far, and
    # every other vector closer than x to one of its members
    for size in range(MAX_EXACT_CLIQUE + 1, 31):
        bg = random_bipgraph(12, size, 0.5, seed=rng.random())
        x = rng.randint(4, 7)
        vecs = bg.cols()
        greedy = max_separated_subset(bg, "B", x)

        def far(u, v):
            return (vecs[u] ^ vecs[v]).bit_count() >= x

        assert all(far(u, v) for u, v in combinations(bits(greedy), 2))
        assert all(not all(far(u, v) for v in bits(greedy))
                   for u in range(size) if not greedy >> u & 1)


def test_separated_exact_between_20_and_the_cap_matches_networkx():
    # sides of 21..24 vectors, once refused, get a maximum clique
    rng = random.Random(7)
    for size in range(21, MAX_EXACT_CLIQUE + 1):
        bg = random_bipgraph(size, 12, 0.5, seed=rng.random())
        x = 6
        H = nx.Graph()
        H.add_nodes_from(range(size))
        H.add_edges_from((u, v) for u, v in combinations(range(size), 2)
                         if (bg.rows[u] ^ bg.rows[v]).bit_count() >= x)
        _, largest = nx.max_weight_clique(H, weight=None)
        assert max_separated_subset(bg, "A", x).bit_count() == largest


def test_separated_bound_sampled():
    rng = random.Random(5)
    checked = 0
    while checked < 10:
        bg = random_bipgraph(12, 12, 0.15, seed=rng.random())
        parts = ((1 << 12) - 1, ((1 << 24) - 1) ^ ((1 << 12) - 1))
        if naive_uk_copy(bipgraph_to_graph(bg), 3, parts):
            continue
        checked += 1
        for x in (4, 6, 8):
            got = max_separated_subset(bg, "A", x).bit_count()
            assert got <= separated_subset_ceiling(12, x, 3, 12)


# --- distinguishing sets ---------------------------------------------------------------

def test_distinguishing_complement_rows():
    bg = BipGraph(2, 1, (0b0, 0b1))
    ds = distinguishing_set(bg, 0b11, 1, seed=0)
    assert ds.X == 0b1 and ds.attempts == 1


def test_distinguishing_full_side_fallback():
    # distinct rows, tiny alpha pushes the sample size past n
    bg = BipGraph(3, 4, (0b0000, 0b0011, 0b1111))
    ds = distinguishing_set(bg, 0b111, Fraction(1, 2), seed=1)
    assert ds.X == 0b1111


def test_distinguishing_postcondition_random():
    rng = random.Random(6)
    done = 0
    while done < 20:
        bg = random_bipgraph(5, 16, 0.5, seed=rng.random())
        try:
            ds = distinguishing_set(bg, 0b11111, Fraction(1, 4),
                                    seed=rng.randint(0, 10 ** 6))
        except DomainError:
            continue  # separation precondition not met by this sample
        done += 1
        assert len({row & ds.X for row in bg.rows}) == 5


def test_distinguishing_errors():
    bg = BipGraph(2, 4, (0b0000, 0b1111))
    with pytest.raises(DomainError):
        distinguishing_set(bg, 0b11, Fraction(1, 8), seed=0)  # alpha*n < 1
    with pytest.raises(DomainError):
        distinguishing_set(bg, 0b01, 1, seed=0)               # c < 2
    close = BipGraph(2, 4, (0b0000, 0b0001))
    with pytest.raises(DomainError):
        distinguishing_set(close, 0b11, Fraction(1, 2), seed=0)  # pair too close


def test_distinguishing_attempt_cap(monkeypatch):
    # rows differ exactly on columns 8..15; a doctored sampler that only
    # ever draws low columns can never distinguish them
    bg = BipGraph(2, 16, (0, 0b1111111100000000))
    monkeypatch.setattr(random.Random, "sample",
                        lambda self, pop, k: list(range(k)))
    with pytest.raises(DomainError, match="attempts"):
        distinguishing_set(bg, 0b11, Fraction(1, 2), seed=0, max_attempts=5)


@given(st.lists(st.integers(0, 63), min_size=1, max_size=24, unique=True),
       st.integers(0, 2 ** 32), st.data())
@settings(max_examples=150, deadline=None)
def test_draw_window_commutes_with_relabeling(cols, seed, data):
    # the sparsening rounds draw over G's own columns, distinguishing_set
    # over range(n); both must pick the same positions
    cols = sorted(cols)
    n = len(cols)
    rows = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=2, max_size=6))
    alpha = Fraction(data.draw(st.integers(1, 4 * n)), 4 * n)
    attempts = data.draw(st.sampled_from([1, 5]))

    def window(rows, cols):
        try:
            return freeness._draw_window(rows, cols, alpha, seed, attempts)
        except DomainError as exc:
            return str(exc)

    spread = [mask_of(cols[i] for i in bits(row)) for row in rows]
    drawn = window(rows, range(n))
    if isinstance(drawn, tuple):
        drawn = mask_of(cols[i] for i in bits(drawn[0])), drawn[1]
    assert window(spread, cols) == drawn


# two rows 64 apart: a window of 7 of the 64 columns separates them
WIDE = BipGraph(4, 64, (0, (1 << 64) - 1, 0, 0))


@pytest.mark.parametrize("call, message", [
    (lambda: trace_count_check(BipGraph(2, 4, (0, 0)), [0b1111, 0b10000], 2),
     "block not contained in the B side"),
    (lambda: max_separated_subset(BipGraph(2, 2, (0b01, 0b10)), "C", 1),
     "side must be 'A' or 'B'"),
    (lambda: distinguishing_set(WIDE, 0b11, Fraction(1, 2), seed=0, max_attempts=0),
     "max_attempts must be positive"),
    (lambda: distinguishing_set(WIDE, 0b10001, Fraction(1, 2), seed=0),
     "u_sub not contained in the A side"),
    (lambda: extract_clone_classes(*planted_clone_instance(1, 1, copies=4),
                                   Fraction(1, 4), 1, direction="x"),
     "direction must be 'to-core' or 'from-core'"),
    (lambda: planted_clone_instance(4, 2, 4),
     "planted instance does not fit in 64 vertices"),
], ids=["block-outside-b", "side-c", "no-attempts", "u-sub-outside-a",
        "direction-x", "planted-too-large"])
def test_freeness_refuses_arguments_outside_its_domain(call, message):
    with pytest.raises(DomainError, match=f"^{message}$"):
        call()


# --- clone classes ------------------------------------------------------------------------

def test_clone_classes_trivial_t0():
    # t = 0 asks for no structure: a part minus the core is no clone class
    G, parts, core = planted_clone_instance(1, 1, copies=2)
    single = 1 << ((core & -core).bit_length() - 1)
    with pytest.raises(DomainError, match="t must be at least 1"):
        extract_clone_classes(G, parts, single | 2, Fraction(1, G.n), 0)


def test_clone_classes_planted_recovery():
    G, parts, core = planted_clone_instance(1, 1, copies=4)
    out = extract_clone_classes(G, parts, core, Fraction(4, G.n), 1, seed=3)
    assert out.b_prime.bit_count() == 1
    sizes = [c.bit_count() for part in out.classes for c in part]
    assert sizes == [4, 4]  # full planted classes recovered
    assert clone_class_failures(G, parts, 1, "to-core", out) == []
    assert out.delta * G.n >= 4
    # the basic form's condition (b), through the library: a transversal
    # shatters B'
    W = mask_of((c & -c).bit_length() - 1 for c in out.classes[0])
    assert shatters(G, W, out.b_prime) is not None


def test_clone_classes_two_parts():
    G, parts, core = planted_clone_instance(2, 1, copies=3)
    out = extract_clone_classes(G, parts, core, Fraction(3, G.n), 1, seed=5)
    assert len(out.classes) == 2
    for part in out.classes:
        assert len(part) == 2
        assert all(c.bit_count() >= 1 for c in part)
    assert clone_class_failures(G, parts, 1, "to-core", out) == []


def test_clone_classes_t2():
    G, parts, core = planted_clone_instance(1, 2, copies=3)
    out = extract_clone_classes(G, parts, core, Fraction(3, G.n), 2, seed=1)
    assert out.b_prime.bit_count() == 2
    assert len(out.classes[0]) == 4
    assert clone_class_failures(G, parts, 2, "to-core", out) == []


@pytest.fixture
def reverse_shatter_calls(monkeypatch):
    """The (A_list, B) of every aligned_reverse_shatter call made through
    ``freeness``; from-core's last call gets one representative of each
    class and the core."""
    calls = []
    real = freeness.aligned_reverse_shatter

    def spy(G, A_list, B, t):
        calls.append((list(A_list), B))
        return real(G, A_list, B, t)

    monkeypatch.setattr(freeness, "aligned_reverse_shatter", spy)
    return calls


def assert_clone_classes(G, parts, t, direction, out, calls):
    """The oracle's conditions and, from-core, those of the classes the
    output keeps t of: 2^|core| per part, with distinct traces on the core,
    which is B'."""
    assert clone_class_failures(G, parts, t, direction, out) == []
    if direction == "from-core":
        reps, core = calls[-1]
        assert core == out.b_prime
        for A in reps:
            assert A.bit_count() == 2 ** core.bit_count()
            assert realizes_every_trace(G, list(bits(A)), list(bits(core)))


def test_clone_classes_from_core(reverse_shatter_calls):
    G, parts, core = planted_clone_instance(1, 2, copies=3)
    out = extract_clone_classes(G, parts, core, Fraction(3, G.n), 1,
                                seed=2, direction="from-core")
    assert out.b_prime.bit_count() == 2  # 2^(r t) = 2
    assert len(out.classes[0]) == 1
    assert_clone_classes(G, parts, 1, "from-core", out, reverse_shatter_calls)
    w = mask_of((c & -c).bit_length() - 1 for part in out.classes for c in part)
    assert shatters(G, out.b_prime, w) is not None


# Exact outputs on fixed inputs: (b_prime, classes, delta), the StepError
# message, which starts with its step, or REFUSED for t = 0.  "planted" is
# planted_clone_instance(r, t, copies) with its core; "random" is
# random_graph(n, 1/2, seed) with parts v mod r and core {0, 1, 2, 3}.
# alpha is 1/n throughout.
REFUSED = DomainError("t must be at least 1")
CLONE_TABLE = [
    (("planted", 1, 1, 4), 0, "to-core", (0, 1), REFUSED),
    (("planted", 1, 1, 4), 1, "to-core", (0, 1),
     (2, ((3840, 240),), 1 / 3)),
    (("planted", 1, 1, 4), 1, "from-core", (0, 1),
     "core-selection: need |B| >= 2^(2^2) = 16 trace patterns, have 4"),
    (("planted", 1, 1, 4), 2, "to-core", (0, 1),
     "core-selection: need |B| >= 2^(2^2) = 16 trace patterns, have 4"),
    (("planted", 1, 2, 3), 0, "from-core", (0, 1), REFUSED),
    (("planted", 1, 2, 3), 1, "from-core", (0, 1),
     (40, ((3670016,),), 3 / 28)),
    (("planted", 1, 2, 3), 2, "to-core", (0, 1),
     (40, ((234881024, 3670016, 29360128, 458752),), 3 / 28)),
    (("planted", 1, 2, 3), 2, "from-core", (0, 1),
     "core-selection: need |B| >= 2^(2^(2^2)) trace patterns, more than the "
     "64-vertex cap allows; have 16"),
    (("planted", 2, 1, 3), 0, "from-core", (0, 1), REFUSED),
    (("planted", 2, 1, 3), 1, "to-core", (0, 1),
     (2, ((896, 112), (57344, 7168)), 3 / 16)),
    (("planted", 2, 1, 3), 1, "from-core", (0, 1),
     "core-selection: need |B| >= 2^(2^(2^2)) trace patterns, more than the "
     "64-vertex cap allows; have 4"),
    (("planted", 2, 2, 1), 2, "to-core", (0, 1),
     (40, ((524288, 131072, 262144, 65536), (8388608, 2097152, 4194304, 1048576)),
      1 / 24)),
    (("planted", 2, 2, 2), 1, "to-core", (0, 1),
     (2, ((786432, 196608), (201326592, 50331648)), 1 / 16)),
    # two cores tie on frequency; the lower mask wins
    (("random", 16, 1, 1), 1, "to-core", (0, 1), (4, ((32, 16),), 1 / 16)),
    (("random", 16, 2, 0), 1, "to-core", (0, 1),
     "find-shattered: no shattered 2^1-set recovered in part 1"),
    (("random", 20, 2, 1), 1, "to-core", (0, 1),
     (4, ((65536, 16), (524288, 2048)), 1 / 20)),
    (("random", 20, 2, 3), 1, "to-core", (0, 1),
     "pigeonhole: no core candidate recurs in every part"),
    (("random", 24, 1, 3), 1, "to-core", (0,),
     (2, ((524416, 65568),), 1 / 12)),
    (("random", 24, 1, 3), 1, "to-core", (1,),
     (8, ((8389632, 32896),), 1 / 12)),
]


def _clone_instance(kind, *args):
    if kind == "planted":
        return planted_clone_instance(*args)
    n, r, seed = args
    return random_graph(n, 0.5, seed=seed), tuple(v % r for v in range(n)), 0b1111


@pytest.mark.parametrize("instance, t, direction, seeds, expected", CLONE_TABLE)
def test_clone_classes_pinned_outputs(reverse_shatter_calls, instance, t,
                                     direction, seeds, expected):
    G, parts, core = _clone_instance(*instance)
    for seed in seeds:
        if isinstance(expected, (str, DomainError)):
            with pytest.raises(StepError if t else DomainError) as err:
                extract_clone_classes(G, parts, core, Fraction(1, G.n), t, seed,
                                      direction)
            assert str(err.value) == str(expected)
            continue
        out = extract_clone_classes(G, parts, core, Fraction(1, G.n), t, seed,
                                    direction)
        assert (out.b_prime, out.classes, out.delta) == expected
        assert_clone_classes(G, parts, t, direction, out, reverse_shatter_calls)


def test_clone_class_checker_flags_doctored_results():
    G, parts, core = planted_clone_instance(2, 1, copies=3)
    out = extract_clone_classes(G, parts, core, Fraction(3, G.n), 1, seed=5)
    assert clone_class_failures(G, parts, 1, "to-core", out) == []
    (c0, c1), rest = out.classes[0], out.classes[1:]
    low = c0 & -c0
    doctored = [
        ((c0 ^ low, c1 | low),) + rest,  # a member moved to the other class
        ((c0 | c1,),) + rest,             # the two classes merged
        ((c0, c1 | out.b_prime),) + rest,  # B' inside a class
        ((c0, c1 & -c1, c1 & (c1 - 1)),) + rest,  # a class split in two
    ]
    for classes in doctored:
        bad = SparseningOutput(out.b_prime, classes, out.delta)
        assert clone_class_failures(G, parts, 1, "to-core", bad) != []
    wide = SparseningOutput(core, out.classes, out.delta)
    assert clone_class_failures(G, parts, 1, "to-core", wide) != []
    assert clone_class_failures(G, parts, 1, "from-core", out) != []


@pytest.mark.parametrize("extra", [6, -1, -12])
def test_clone_classes_parts_must_match_the_graph(extra):
    # six extra labels once put vertices 12..17 of a 12-vertex graph into
    # the classes
    G, parts, core = planted_clone_instance(1, 1, copies=4)
    parts = parts + (0,) * extra if extra > 0 else parts[:extra]
    with pytest.raises(DomainError, match="^parts do not match the graph$"):
        extract_clone_classes(G, parts, core, Fraction(1, 12), 0)


def test_clone_classes_window_over_the_trace_ground_cap():
    # a sparse host leaves the core candidates close, so the distinguishing
    # window is the whole 34-column part: more than the 30-vertex ground cap
    G = random_graph(38, 0.1, seed=0)
    with pytest.raises(DomainError, match="ground set larger than 30"):
        extract_clone_classes(G, (0,) * 38, 0b1111, Fraction(1, 38), 1)


def test_clone_classes_structured_errors():
    G, parts, core = planted_clone_instance(1, 1, copies=2)
    # |B| = 4 < 2^(2^2)
    with pytest.raises(StepError, match="^core-selection: "):
        extract_clone_classes(G, parts, core, Fraction(2, G.n), 2, seed=0)


@pytest.mark.parametrize("r, t, direction", [(2, 2, "from-core"), (3, 2, "from-core"),
                                             (1, 3, "to-core"), (1, 10 ** 6, "to-core"),
                                             (1, 10 ** 6, "from-core")])
def test_clone_classes_core_selection_never_forms_the_tower(r, t, direction):
    # |B| <= 64 < 2^(2^3); these needs once raised ValueError or MemoryError
    G, parts, core = planted_clone_instance(r, 1, copies=1)
    with pytest.raises(StepError, match="^core-selection: ") as err:
        extract_clone_classes(G, parts, core, 0.01, t, direction=direction)
    assert len(str(err.value)) < 120


def test_clone_classes_negative_t():
    G, parts, core = planted_clone_instance(1, 1, copies=2)
    with pytest.raises(DomainError):
        extract_clone_classes(G, parts, core, Fraction(2, G.n), -1)


def test_clone_classes_separation_precondition():
    G, parts, core = planted_clone_instance(1, 1, copies=2)
    with pytest.raises(DomainError):
        extract_clone_classes(G, parts, core, Fraction(1, 2), 1, seed=0)
