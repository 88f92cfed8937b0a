"""Exact outputs of every graph producer in the package: the universal
constructions, the planted clone instances, random graphs, edge lists and
graph6 decoding.  Each pin is a graph6 string, or the sha256 of a sweep of
them, so a change in how a producer builds its rows shows here even when
every structural test still passes."""

import hashlib
import random
from itertools import product

import pytest

from hptools import (DomainError, construct_generalized_universal,
                     construct_universal, construct_universal_star,
                     graph6_decode, graph6_encode, graph_from_edges,
                     planted_clone_instance, random_graph)

from oracles import same_as_checked

# sha256 of the sweeps below, one line per graph
LAYERED_DIGEST = "8e08cc4fe8c0d77f7e763b083b5c89ca3d4b98f41395648316e2e22bda28d2e2"
PLANTED_DIGEST = "fd4399aa8267ad149e54db741cfc75a2bda293b7a6bddf7ebdf7324076942bcd"
RANDOM_64_DIGEST = "6dfb48845c275a9009e00783b4510bf5e71d4acef6d5612959eeff1de818b39c"


def g6(G) -> str:
    assert same_as_checked(G)
    return graph6_encode(G).decode()


def digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("k,want", [
    (1, "BG"), (2, "E?So"), (3, "J????@TKo]?"),
    (4, "S????????????????????TTSrKo]F_@~_"),
    (5, "d???????????????????????????????????????????????????????????????????"
        "???????????????@TTTTTKrKrKo]F`w]?F}?^w??B~~o")])
def test_universal_graph6(k, want):
    uni = construct_universal(k)
    assert g6(uni.graph) == want
    assert (uni.A, uni.B) == ((1 << (1 << k)) - 1, ((1 << k) - 1) << (1 << k))


@pytest.mark.parametrize("r,k,want,layers", [
    (2, 1, "BO", (1, 6)), (2, 2, "ECR?", (3, 60)),
    (2, 3, "J?`E@A_WF??", (7, 2040)), (3, 1, "JO`E@A_WF??", (1, 6, 2040))])
def test_generalized_universal_graph6(r, k, want, layers):
    lay = construct_generalized_universal(r, k)
    assert (g6(lay.graph), lay.layers) == (want, layers)


@pytest.mark.parametrize("r,k,v,want", [
    (2, 1, (1, 1), "BW"), (2, 2, (1, 0), "EcR?"),
    (3, 1, (0, 1, 0), "JW`E@A_WF??"), (3, 1, (1, 1, 1), "JWd]x}~^~~_")])
def test_universal_star_graph6(r, k, v, want):
    assert g6(construct_universal_star(r, k, v).graph) == want


def layered_sweep() -> list[str]:
    """Every U(r, k) that fits, r <= 5, k <= 64, and every starred variant
    of the ones with k <= 4, one line each."""
    lines = []
    for r, k in product(range(1, 6), range(1, 65)):
        try:
            lay = construct_generalized_universal(r, k)
        except DomainError:
            continue
        lines.append(f"{r} {k} {g6(lay.graph)} {lay.layers}")
        if k <= 4:
            for v in product((0, 1), repeat=r):
                star = construct_universal_star(r, k, v)
                lines.append(f"{r} {k} {v} {g6(star.graph)} {star.layers}")
    return lines


def test_layered_sweep_digest():
    lines = layered_sweep()
    assert len(lines) == 102
    assert digest(lines) == LAYERED_DIGEST


@pytest.mark.parametrize("r,t,copies,want,core", [
    (1, 1, 1, "E?So", 15), (2, 1, 2, "K?TP``OS@_E?", 15),
    (1, 2, 1, "S????????????????????TTSrKo]F_@~_", 65535)])
def test_planted_clone_instance_graph6(r, t, copies, want, core):
    G, labels, got_core = planted_clone_instance(r, t, copies)
    assert (g6(G), got_core) == (want, core)
    assert labels == (0,) * (1 << (1 << t)) + sum(
        ((i,) * ((1 << t) * copies) for i in range(r)), ())


def test_planted_sweep_digest():
    lines = []
    for r, t, copies in product(range(1, 4), range(1, 3), range(4)):
        G, labels, core = planted_clone_instance(r, t, copies)
        lines.append(f"{r} {t} {copies} {g6(G)} {labels} {core}")
    assert digest(lines) == PLANTED_DIGEST


@pytest.mark.parametrize("n,p,seed,want", [
    (0, 0.5, 1, "?"), (1, 0.5, 1, "@"), (7, 0.5, 3, "FhlS?"),
    (12, 0.3, 5, "K?`RdZG`[_DG")])
def test_random_graph_graph6(n, p, seed, want):
    assert g6(random_graph(n, p, seed=seed)) == want
    assert g6(random_graph(n, p, seed=random.Random(seed))) == want


def test_random_graph_64_vertices_digest():
    G = random_graph(64, 0.1, seed=9)
    assert G.edge_count() == 224
    assert digest([g6(G)]) == RANDOM_64_DIGEST


def test_graph_from_edges_unordered_and_duplicate_edges():
    G = graph_from_edges(5, [(3, 1), (1, 3), (0, 4), (4, 0), (2, 1), (1, 2),
                             (0, 4)])
    assert g6(G) == "DI_"
    assert G.adj == (0b10000, 0b01100, 0b00010, 0b00010, 0b00001)


@pytest.mark.parametrize("data,adj", [
    ("DI_", (0b10000, 0b01100, 0b00010, 0b00010, 0b00001)),
    ("E?So", (0, 0b010000, 0b100000, 0b110000, 0b001010, 0b001100)),
    ("?", ()), ("@", (0,))])
def test_graph6_decode_rows(data, adj):
    G = graph6_decode(data)
    assert G.adj == adj and same_as_checked(G)
