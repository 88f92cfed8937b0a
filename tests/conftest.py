import shutil
import sys
from pathlib import Path

# a bytecode cache left in src/ or tests/ would make the next import of the
# package faster than a fresh checkout's.  pytest writes this module's
# rewritten code to tests/__pycache__ before any line of it runs, so that
# cache is removed here; nothing imported after these lines writes one
sys.dont_write_bytecode = True
shutil.rmtree(Path(__file__).with_name("__pycache__"), ignore_errors=True)
sys.path.insert(0, str(Path(__file__).parent))

import pytest

from hptools import BipGraph, Graph, bits, graph_from_edges


def complement(G: Graph) -> Graph:
    full = G.vertex_mask
    return Graph(G.n, tuple((full & ~r) & ~(1 << i) for i, r in enumerate(G.adj)))


def edgelist_encode(G: Graph) -> str:
    lines = [str(G.n)]
    lines += [f"{u} {v}" for u, v in G.edges()]
    return "\n".join(lines) + "\n"


def bipgraph_to_graph(bg: BipGraph) -> Graph:
    """The host graph on m + n vertices (A first, then B)."""
    adj = [0] * (bg.m + bg.n)
    for a, row in enumerate(bg.rows):
        for b in bits(row):
            adj[a] |= 1 << (bg.m + b)
            adj[bg.m + b] |= 1 << a
    return Graph(bg.m + bg.n, tuple(adj))


def bipgraph_encode(bg: BipGraph) -> str:
    lines = [f"{bg.m} {bg.n}"]
    for row in bg.rows:
        lines.append("".join("1" if row >> b & 1 else "0" for b in range(bg.n)))
    return "\n".join(lines) + "\n"


def complete_graph(n: int) -> Graph:
    return graph_from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def cycle_graph(n: int) -> Graph:
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return graph_from_edges(n, [(i, i + 1) for i in range(n - 1)])


@pytest.fixture
def k3():
    return complete_graph(3)


@pytest.fixture
def k4():
    return complete_graph(4)


@pytest.fixture
def c4():
    return cycle_graph(4)


@pytest.fixture
def c5():
    return cycle_graph(5)
