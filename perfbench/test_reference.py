"""Checks of the benchmark itself: its pinned references against oracles
independent of ``src/``, its metric table against ``BENCHMARK.json``, and
its tracer's accounting.

    python -m pytest -q perfbench/test_reference.py

The census counts are re-derived by networkx brute force over every
labeled graph, the H(r,v) lower bounds by brute force over part
assignments, and the count-free counts by ``numpy_count_uk_free`` from
``tests/oracles.py``.  Every pinned certificate and packing report is
re-checked from its definition on the graph as networkx decodes it.
"""

from __future__ import annotations

import json
import sys
from contextlib import redirect_stdout
from io import StringIO
from itertools import combinations, product
from pathlib import Path

import networkx as nx
import pytest
from networkx.algorithms.isomorphism import GraphMatcher

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "tests")]

import run  # noqa: E402
from tracer import FUNCTIONS, Tracer  # noqa: E402
from workloads import (CENSUS_N_MAX, CENSUS_PROPERTIES,  # noqa: E402
                       COUNT_FREE_MODES, COUNT_FREE_SIZES, WORKLOADS,
                       certify_pool, load_reference)

N_MAX = CENSUS_N_MAX


def forbidden_graph(prop: str) -> nx.Graph:
    n, edges = CENSUS_PROPERTIES[prop]
    F = nx.Graph(edges)
    F.add_nodes_from(range(n))
    return F


def labeled_graphs(n: int):
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        G = nx.Graph()
        G.add_nodes_from(range(n))
        G.add_edges_from(p for i, p in enumerate(pairs) if mask >> i & 1)
        yield G


# ---------------------------------------------------------------------------
# census


@pytest.mark.parametrize("prop", sorted(CENSUS_PROPERTIES))
def test_census_counts_match_networkx_brute_force(prop):
    F = forbidden_graph(prop)
    pinned = load_reference("census")[prop]
    counts = [sum(1 for G in labeled_graphs(n)
                  if not GraphMatcher(G, F).subgraph_is_isomorphic())
              for n in range(1, N_MAX + 1)]
    assert [int(row["count"]) for row in pinned] == counts
    assert [row["n"] for row in pinned] == list(range(1, N_MAX + 1))
    if prop == "K3":  # labeled triangle-free graphs
        assert counts == [1, 2, 7, 41, 388, 5789][:N_MAX]


def admits_partition(n: int, edges: set, v: tuple) -> bool:
    """Brute force: some assignment of [n] to len(v) parts makes part j a
    clique when v[j] = 1 and an independent set otherwise."""
    for labels in product(range(len(v)), repeat=n):
        if all(((a, b) in edges) == (v[labels[a]] == 1)
               for a, b in combinations(range(n), 2) if labels[a] == labels[b]):
            return True
    return False


def hrv_count(n: int, v: tuple) -> int:
    """Labeled graphs on [n] with a (len(v), v)-partition: the union over
    assignments of every choice of the free cross pairs."""
    pairs = list(combinations(range(n), 2))
    graphs = set()
    for labels in product(range(len(v)), repeat=n):
        base = cross = 0
        for i, (a, b) in enumerate(pairs):
            if labels[a] != labels[b]:
                cross |= 1 << i
            elif v[labels[a]]:
                base |= 1 << i
        sub = cross
        while True:
            graphs.add(base | sub)
            if not sub:
                break
            sub = (sub - 1) & cross
    return len(graphs)


@pytest.mark.parametrize("prop", sorted(CENSUS_PROPERTIES))
def test_census_hrv_lower_matches_brute_force(prop):
    n_f, f_edges = CENSUS_PROPERTIES[prop]
    f_edges = {tuple(sorted(e)) for e in f_edges}
    patterns = []
    r = 1
    while True:  # H(r,v) lies in the property iff F has no (r,v)-partition
        valid = [v for ones in range(r + 1)
                 for v in [(1,) * ones + (0,) * (r - ones)]
                 if not admits_partition(n_f, f_edges, v)]
        if not valid:
            break
        patterns += valid
        r += 1
    pinned = load_reference("census")[prop]
    lower = [max(hrv_count(n, v) for v in patterns)
             for n in range(1, N_MAX + 1)]
    assert [int(row["hrv_lower"]) for row in pinned] == lower


def test_census_certified_fractions_are_fractions_of_the_count():
    for rows in load_reference("census").values():
        for row in rows:
            good, total = map(int, row["certified_fraction"].split("/"))
            assert 0 <= good <= total == int(row["count"])


# ---------------------------------------------------------------------------
# count-free


@pytest.mark.parametrize("m,n", COUNT_FREE_SIZES)
@pytest.mark.parametrize("mode", COUNT_FREE_MODES)
def test_count_free_matches_numpy_oracle(m, n, mode):
    from oracles import numpy_count_uk_free

    assert load_reference("count_free")[f"{m}x{n}"][mode] == str(
        numpy_count_uk_free(m, n, 2, mode))


# ---------------------------------------------------------------------------
# certify


def traces_complete(G: nx.Graph, pool: set, B: tuple) -> bool:
    """Do the vertices of ``pool`` outside B realize all 2^|B| traces on B?"""
    seen = {tuple(b in G[a] for b in B) for a in pool if a not in B}
    return len(seen) == 1 << len(B)


def has_uk_copy(G: nx.Graph, S: set, k: int) -> bool:
    return any(traces_complete(G, S, B) for B in combinations(sorted(S), k))


def check_piece(G: nx.Graph, labels, piece: dict) -> None:
    layers = [set(layer) for layer in piece["layers"]]
    placement = piece["placement"]
    assert len(layers) == len(placement) == piece["level"] >= 2
    assert placement[0] == placement[1]
    assert len(set(placement[1:])) == len(placement) - 1
    for layer, part in zip(layers, placement):
        assert all(labels[v] == part for v in layer)
    prefix = set(layers[0])
    for layer in layers[1:]:
        # each layer realizes every trace on the earlier layers exactly once
        assert len(layer) == 1 << len(prefix)
        assert traces_complete(G, layer, tuple(sorted(prefix)))
        prefix |= layer


def test_certify_pool_regenerates_from_its_streams():
    pinned = load_reference("certify")
    assert [{k: e[k] for k in ("n", "r", "graph6")} for e in pinned] \
        == certify_pool()
    assert sorted({e["n"] for e in pinned}) == list(range(8, 41))


def test_certify_pinned_certificates_hold_by_definition():
    for entry in load_reference("certify"):
        G = nx.from_graph6_bytes(entry["graph6"].encode("ascii"))
        n, r = entry["n"], entry["r"]
        assert G.number_of_nodes() == n
        for k, want in entry["expected"].items():
            k = int(k)
            cert, pack = want["certificate"], want["packing"]
            labels = cert["adjusted_labels"]
            assert len(labels) == n and all(0 <= j < r for j in labels)
            A, parts = set(cert["A"]), [set(p) for p in cert["parts"]]
            assert len(parts) == r
            assert sum(map(len, parts)) + len(A) == n
            assert set().union(A, *parts) == set(range(n))
            assert set(cert["bad_set"]) <= A
            packed = set()
            for piece in cert["pieces"]:
                check_piece(G, labels, piece)
                vertices = set().union(*map(set, piece["layers"]))
                assert not vertices & packed
                packed |= vertices
            assert A == set(cert["bad_set"]) | packed
            for j, S in enumerate(parts):
                assert S == {v for v in range(n) if labels[v] == j} - A
                assert not has_uk_copy(G, S, k)
            packed = set()
            for piece in pack["pieces"]:
                check_piece(G, labels, piece)
                vertices = set().union(*map(set, piece["layers"]))
                assert not vertices & packed
                packed |= vertices
            assert [set(res) for res in pack["residual"]] == [
                {v for v in range(n) if labels[v] == j} - packed
                for j in range(len(pack["residual"]))]


# ---------------------------------------------------------------------------
# the harness


def test_benchmark_json_names_what_the_harness_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    for w in WORKLOADS.values():
        assert w.busy <= set(FUNCTIONS)


def traced_call(argv: list[str]) -> Tracer:
    from hptools import cli

    tracer = Tracer()
    originals = {q: getattr(sys.modules[f"hptools.{q.split('.')[0]}"],
                            q.split(".")[1]) for q in FUNCTIONS}
    tracer.install()
    try:
        with redirect_stdout(StringIO()):
            assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    for q, fn in originals.items():
        assert getattr(sys.modules[f"hptools.{q.split('.')[0]}"],
                       q.split(".")[1]) is fn
    return tracer


def test_tracer_counts_and_splits_self_time(tmp_path):
    path = tmp_path / "k3.g6"
    path.write_text("Bw\n")
    tracer = traced_call(["census", "--forbidden", str(path), "--n-max", "4"])
    stats = tracer.stats
    # K3-free has the patterns (1,(0)) and (2,(0,0)); each scans every
    # labeled graph on n = 1..4
    scanned = 2 * sum(1 << (n * (n - 1) // 2) for n in range(1, 5))
    assert stats["graphs.enumerate_labeled"].scanned == scanned
    assert stats["hereditary.count_hrv"].tests == scanned
    assert stats["hereditary.count_hrv"].accepted == 4 + (1 + 2 + 7 + 41)
    assert stats["hereditary.enumerate_property"].yielded == 1 + 2 + 7 + 41
    assert stats["cli.main"].calls == 1
    total_self = sum(s.self_s for s in stats.values())
    assert total_self == pytest.approx(stats["cli.main"].span_s, rel=1e-6)
    assert tracer.value("hereditary.count_hrv.accept_ratio") == pytest.approx(
        55 / scanned)


def test_tracer_counts_patterns():
    tracer = traced_call(["count-free", "--m", "2", "--n", "3", "--k", "1"])
    assert tracer.value("freeness.count_uk_free_bipartite.patterns") == 64
    assert tracer.value("freeness.count_uk_free_bipartite.calls") == 1
    assert tracer.value("freeness.self_s") > 0
