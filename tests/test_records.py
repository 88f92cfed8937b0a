"""The package's records are ``NamedTuple``s.  Each keeps the behaviour it
had as a frozen dataclass: its fields, positional and keyword construction,
equality and hashing by value, its repr, and ``AttributeError`` on
assignment.  ``Graph``, ``BipGraph`` and ``PropertySpec`` check their fields
in ``__new__``, with the same messages in the same order."""

import dataclasses
import importlib
import pkgutil
import re
from fractions import Fraction

import pytest

import hptools
from hptools import (BipGraph, DomainError, Graph, PropertySpec, graph_from_edges)
from hptools.freeness import (BlockTraceReport, DistinguishingSet, SparseCount,
                              SparseningOutput)
from hptools.hereditary import ColouringNumber, SpeedRow
from hptools.structure import DecompositionCertificate, PackingPiece, PackingReport
from hptools.universal import BipartiteUniversal, LayeredUniversal

P3 = graph_from_edges(3, [(0, 1), (1, 2)])
PIECE = PackingPiece((0b1, 0b110), 2, (0, 1))

# one instance of each record, built from its fields in order
RECORDS = [
    (Graph, (3, P3.adj)),
    (BipGraph, (2, 3, (0b101, 0b010))),
    (PropertySpec, ((P3,),)),
    (SpeedRow, (3, 4, 2 / 3)),
    (ColouringNumber, (2, False, False, (0, 1))),
    (PackingPiece, ((0b1, 0b110), 2, (0, 1))),
    (PackingReport, ((PIECE,), (0b1000,), 1, 2)),
    (DecompositionCertificate, (4, 2, 1, 0b1, (0b110, 0b1000), (0, 0, 1, 1),
                                0b1, (0, 0, 1, 1), True, (PIECE,), Fraction(1, 4),
                                0.5, 2.0, True)),
    (BlockTraceReport, (3, 4, 4, 6)),
    (SparseCount, (46, 22.6)),
    (DistinguishingSet, (0b1011, 2)),
    (SparseningOutput, (0b11, ((0b100, 0b1000),), 0.25)),
    (BipartiteUniversal, (P3, 0b101, 0b010)),
    (LayeredUniversal, (P3, (0b1, 0b110))),
]


@pytest.mark.parametrize("cls, values", RECORDS, ids=[c.__name__ for c, _ in RECORDS])
def test_records_keep_their_dataclass_behaviour(cls, values):
    record = cls(*values)
    assert record == cls(**dict(zip(cls._fields, values)))
    assert tuple(getattr(record, f) for f in cls._fields) == values
    # a frozen dataclass hashed the tuple of its compared fields
    assert hash(record) == hash(values)
    for field in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, values[0])
    with pytest.raises(AttributeError):
        record.extra = 0
    if cls is not Graph:
        assert repr(record) == f"{cls.__name__}(" + ", ".join(
            f"{f}={v!r}" for f, v in zip(cls._fields, values)) + ")"


@pytest.mark.parametrize("cls, values", RECORDS[3:],
                         ids=[c.__name__ for c, _ in RECORDS[3:]])
def test_records_differ_in_any_field(cls, values):
    record = cls(*values)
    for field in cls._fields:
        other = record._replace(**{field: "other"})
        assert other != record and getattr(other, field) == "other"


def test_graph_keeps_its_repr():
    assert repr(P3) == "Graph(n=3, edges=[(0, 1), (1, 2)])"


def test_records_unpack_and_equal_plain_tuples():
    n, adj = P3
    assert (n, adj) == P3 and P3 == (3, P3.adj)
    assert SparseCount(1, 1.0) == (1, 1.0)


@pytest.mark.parametrize("fields, message", [
    ((65, (0,) * 65), "vertex count 65 outside 0..64"),
    ((-1, ()), re.escape("vertex count -1 outside 0..64")),
    ((2, (0b10,)), "adjacency row count does not match n"),
    # row by row: a self-loop at vertex 0 before bits outside at row 1
    ((2, (0b01, 0b100)), "self-loop at vertex 0"),
    ((2, (0b100, 0b11)), re.escape("row 0 has bits outside [n]")),
    ((3, (0b010, 0b000, 0b000)), re.escape("adjacency not symmetric at (0,1)")),
])
def test_graph_refuses_bad_rows_as_before(fields, message):
    with pytest.raises(DomainError, match=message):
        Graph(*fields)
    with pytest.raises(DomainError, match=message):
        Graph(n=fields[0], adj=fields[1])


@pytest.mark.parametrize("fields, message", [
    ((65, 1, (0,) * 65), "bipartite sides capped at 64"),
    ((1, -1, (0,)), "bipartite sides capped at 64"),
    ((2, 2, (0b01,)), "row count does not match m"),
    ((2, 2, (0b01, 0b100)), "row has bits outside the B side"),
])
def test_bipgraph_refuses_bad_rows_as_before(fields, message):
    with pytest.raises(DomainError, match=message):
        BipGraph(*fields)
    with pytest.raises(DomainError, match=message):
        BipGraph(m=fields[0], n=fields[1], rows=fields[2])


@pytest.mark.parametrize("forbidden, message", [
    ((graph_from_edges(0, []),), re.escape("forbidden graphs must have 1..10 vertices")),
    ((graph_from_edges(11, []),), re.escape("forbidden graphs must have 1..10 vertices")),
    ((graph_from_edges(2, []), graph_from_edges(3, [])), "forbidden family is not minimal"),
])
def test_spec_refuses_bad_families_as_before(forbidden, message):
    with pytest.raises(DomainError, match=message):
        PropertySpec(forbidden)
    with pytest.raises(DomainError, match=message):
        PropertySpec(forbidden=forbidden)


def test_replace_checks_the_validating_records():
    with pytest.raises(DomainError, match="adjacency row count does not match n"):
        P3._replace(n=4)
    with pytest.raises(DomainError, match="row count does not match m"):
        BipGraph(1, 1, (1,))._replace(m=2)
    with pytest.raises(DomainError, match="not minimal"):
        PropertySpec((P3,))._replace(forbidden=(P3, graph_from_edges(4, [(0, 1), (1, 2)])))
    spec = PropertySpec((P3,))
    spec.tree[b""] = b"\x00"
    assert spec._replace().tree == {}


def test_trusted_graph_equals_the_checked_one():
    trusted = Graph._trusted(3, P3.adj)
    assert type(trusted) is Graph and trusted == Graph(3, P3.adj) == P3
    assert hash(trusted) == hash(P3) == hash((3, P3.adj))


def test_no_dataclass_in_the_package():
    modules = [importlib.import_module(f"hptools.{m.name}")
               for m in pkgutil.iter_modules(hptools.__path__)]
    found = [f"{module.__name__}.{name}" for module in modules
             for name, value in vars(module).items()
             if isinstance(value, type) and dataclasses.is_dataclass(value)]
    assert len(modules) >= 9 and found == []
