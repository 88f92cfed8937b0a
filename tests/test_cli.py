import argparse
import copy
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hptools
from hptools import cli, hereditary
from hptools import (DecompositionCertificate, Graph, PackingReport,
                     PropertySpec, certify_members, colouring_number, decompose,
                     enumerate_property, extract_universal_packing,
                     graph6_decode, graph6_encode, graph_from_edges,
                     random_graph)
from hptools.cli import (_rational, build_parser, certificate_from_dict,
                         certificate_to_dict, main, packing_to_dict)
from hptools.freeness import BipGraph, planted_clone_instance, random_bipgraph
from hptools.graphs import IsomorphismClasses

from conftest import bipgraph_encode, complete_graph, edgelist_encode, path_graph
from oracles import (class_certified_fraction, labeled_certified_fraction,
                     nonshattering_by_inclusion_exclusion)


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def write_spec(tmp_path, *graphs):
    path = tmp_path / "spec.g6"
    path.write_bytes(b"\n".join(graph6_encode(g) for g in graphs) + b"\n")
    return str(path)


def parse(out: str) -> dict:
    return json.loads(out)


def test_speed_subcommand(tmp_path, capsys):
    spec = write_spec(tmp_path, complete_graph(3))
    rc, out, _ = run(capsys, "speed", "--forbidden", spec, "--n", "3")
    assert rc == 0
    rep = parse(out)
    assert rep["results"]["count"] == "7"
    assert rep["command"] == "speed"


def test_chi_c_subcommand(tmp_path, capsys):
    spec = write_spec(tmp_path, complete_graph(3))
    rc, out, _ = run(capsys, "chi-c", "--forbidden", spec)
    assert rc == 0
    assert parse(out)["results"]["colouring_number"] == 2


@pytest.mark.parametrize("r_max", ["0", "-3", "9"])
def test_chi_c_r_max_outside_1_to_8_exits_1(tmp_path, capsys, r_max):
    # below 1 no r is examined, so there is no colouring number to report
    spec = write_spec(tmp_path, complete_graph(3))
    rc, out, err = run(capsys, "chi-c", "--forbidden", spec, "--r-max", r_max)
    assert (rc, out, err) == (1, "", "error: r_max must lie in 1..8\n")


def test_count_free_subcommand(capsys):
    rc, out, _ = run(capsys, "count-free", "--m", "2", "--n", "2",
                     "--k", "2", "--mode", "whole")
    assert rc == 0
    assert parse(out)["results"]["count"] == "16"


def test_construct_and_shatter(tmp_path, capsys):
    rc, out, _ = run(capsys, "construct", "--k", "2")
    assert rc == 0
    rep = parse(out)
    assert rep["results"]["shatters"] is True
    gpath = tmp_path / "u2.g6"
    gpath.write_text(rep["results"]["graph6"] + "\n")
    A = ",".join(str(v) for v in rep["results"]["A"])
    B = ",".join(str(v) for v in rep["results"]["B"])
    rc, out, _ = run(capsys, "shatter", "--graph", str(gpath),
                     "--A", A, "--B", B)
    assert rc == 0
    assert parse(out)["results"]["shatters"] is True


def test_construct_star(capsys):
    rc, out, _ = run(capsys, "construct", "--k", "1", "--r", "3", "--v", "010")
    assert rc == 0
    assert parse(out)["results"]["layer_sizes"] == [1, 2, 8]


def test_construct_pattern_alone_fixes_r(capsys):
    _, with_r, _ = run(capsys, "construct", "--k", "1", "--r", "3", "--v", "010")
    rc, out, _ = run(capsys, "construct", "--k", "1", "--v", "010")
    assert rc == 0
    assert parse(out)["results"] == parse(with_r)["results"]


def test_count_attach_subcommand(capsys):
    rc, out, _ = run(capsys, "count-attach", "--a", "1", "--n", "2")
    assert rc == 0
    res = parse(out)["results"]
    assert res["exact"] == "2" and res["printed_bound"] == "1"


@pytest.mark.parametrize("a,n", [(4, 6), (2, 0), (2, 12), (1, 25)])
def test_count_attach_runs_under_the_count_caps(capsys, a, n):
    # 1 <= a <= 4, n >= 0 and a*n <= 25, as for count-free
    rc, out, _ = run(capsys, "count-attach", "--a", str(a), "--n", str(n))
    assert rc == 0
    assert parse(out)["results"]["exact"] == str(
        nonshattering_by_inclusion_exclusion(a, n))


def test_separated_subcommand(tmp_path, capsys):
    bg = random_bipgraph(6, 6, 0.4, seed=1)
    path = tmp_path / "bg.txt"
    path.write_text(bipgraph_encode(bg))
    rc, out, _ = run(capsys, "separated", "--bipgraph", str(path),
                     "--side", "A", "--x", "3", "--k", "3")
    assert rc == 0
    res = parse(out)["results"]
    assert res["exact"] is True and "ceiling" in res


def test_sparsen_distinguishing(tmp_path, capsys):
    bg = random_bipgraph(4, 16, 0.5, seed=2)
    path = tmp_path / "bg.txt"
    path.write_text(bipgraph_encode(bg))
    rc, out, _ = run(capsys, "sparsen", "--bipgraph", str(path),
                     "--alpha", "0.25", "--seed", "11")
    if rc == 0:
        rep = parse(out)
        assert rep["seed"] == 11
        assert len(rep["results"]["X"]) == rep["results"]["size"]
    else:
        assert rc == 1  # separation precondition can fail for a random draw


def test_result_keys_of_mask_and_witness_reports(tmp_path, capsys):
    G, parts, core = planted_clone_instance(1, 1, copies=4)
    gpath = tmp_path / "g.g6"
    gpath.write_bytes(graph6_encode(G) + b"\n")
    bgpath = tmp_path / "bg.txt"
    bgpath.write_text(bipgraph_encode(BipGraph(2, 8, (0, 0b11111111))))
    clone = ["sparsen", "--graph", str(gpath), "--parts", ",".join(map(str, parts)),
             "--core", "0,1,2,3", "--alpha", "1/3", "--t", "1"]
    G2, parts2, core2 = planted_clone_instance(1, 2, copies=3)
    g2path = tmp_path / "g2.g6"
    g2path.write_bytes(graph6_encode(G2) + b"\n")
    from_core = ["sparsen", "--graph", str(g2path),
                 "--parts", ",".join(map(str, parts2)),
                 "--core", ",".join(str(v) for v in range(G2.n) if core2 >> v & 1),
                 "--alpha", f"1/{G2.n}", "--t", "1", "--direction", "from-core"]
    cases = [
        (clone, {"b_prime", "classes", "delta"}),
        (from_core, {"b_prime", "classes", "delta"}),
        (["sparsen", "--bipgraph", str(bgpath), "--alpha", "1/4"],
         {"X", "size", "attempts"}),
        (["separated", "--bipgraph", str(bgpath), "--x", "3"],
         {"vertices", "size", "exact"}),
        (["separated", "--bipgraph", str(bgpath), "--x", "3", "--k", "2"],
         {"vertices", "size", "exact", "ceiling"}),
        (["shatter", "--graph", str(gpath), "--A", "0,1,2,3", "--B", "4,8"],
         {"shatters", "realizers"}),
        (["shatter", "--graph", str(gpath), "--A", "0,1", "--B", "4,8"],
         {"shatters"}),
    ]
    for argv, keys in cases:
        rc, out, err = run(capsys, *argv)
        assert (rc, err) == (0, "")
        assert set(parse(out)["results"]) == keys, argv


def test_rational_options_are_exact(tmp_path, capsys):
    # core pair (0, 1) at distance 1 = alpha * n exactly; the float 0.1 lies
    # above 1/10, so it once refused the pair as too close.  Read exactly,
    # both spellings pass the separation check and stop at the next step,
    # where two core vertices are too few for t = 1.
    gpath = tmp_path / "e.txt"
    gpath.write_text("10\n0 2\n")
    for alpha in ("0.1", "1/10"):
        rc, out, err = run(capsys, "sparsen", "--graph", str(gpath), "--parts",
                           ",".join("0" * 10), "--core", "0,1", "--t", "1",
                           "--alpha", alpha)
        assert out == ""
        assert_one_line_error(rc, err, "core-selection: need |B| >= 2^(2^1) = 4 "
                                       "trace patterns, have 2")


@pytest.mark.parametrize("argv", [
    ["decompose", "--graph", "{g}", "--r", "2", "--k", "1", "--alpha", "{a}",
     "--eps-out", "{e}"],
    ["census", "--forbidden", "{s}", "--n-max", "4", "--certify", "--alpha",
     "{a}", "--eps", "{e}", "--budget-eps", "{e}"],
    ["verify", "--certificate", "{c}", "--budget-eps", "{e}"],
])
def test_fraction_options_report_as_their_decimals(tmp_path, capsys, argv):
    gpath = tmp_path / "g.g6"
    gpath.write_bytes(graph6_encode(random_graph(8, 0.5, seed=2)) + b"\n")
    cpath = tmp_path / "cert.json"
    cpath.write_text(json.dumps(DECOMPOSITION))
    spec = write_spec(tmp_path, complete_graph(3))
    outs = []
    for a, e in (("0.25", "0.5"), ("1/4", "1/2")):
        rc, out, err = run(capsys, *(x.format(g=gpath, s=spec, c=cpath, a=a, e=e)
                                     for x in argv))
        assert (rc, err) == (0, "")
        outs.append(out.split('"timing_ms"')[0])
    assert outs[0] == outs[1]
    # each option is a JSON number, as it was when parsed as a float
    params = parse(out)["params"]
    assert {params[key] for key in ("alpha", "eps", "eps_out", "budget_eps")
            if key in params} <= {0.25, 0.5}
    assert all(type(params[key]) is float for key in params if "eps" in key)


@pytest.mark.parametrize("t, direction", [("2", "from-core"), ("3", "to-core"),
                                          ("1000", "from-core"), ("-1", "to-core")])
def test_sparsen_clone_classes_large_or_negative_t(tmp_path, capsys, t, direction):
    G, parts, core = planted_clone_instance(2, 2, 1)
    gpath = tmp_path / "g.g6"
    gpath.write_bytes(graph6_encode(G) + b"\n")
    rc, out, err = run(capsys, "sparsen", "--graph", str(gpath),
                       "--parts", ",".join(map(str, parts)),
                       "--core", ",".join(str(v) for v in range(G.n) if core >> v & 1),
                       "--t", t, "--alpha", "0.01", "--direction", direction)
    assert (rc, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_pack_and_verify_roundtrip(tmp_path, capsys):
    G = random_graph(12, 0.5, seed=5)
    gpath = tmp_path / "g.g6"
    gpath.write_bytes(graph6_encode(G) + b"\n")
    parts = ",".join(str(v % 2) for v in range(12))
    rc, out, _ = run(capsys, "pack", "--graph", str(gpath),
                     "--parts", parts, "--k", "1")
    assert rc == 0
    rep = parse(out)
    assert rep["results"]["structure_ok"] and rep["results"]["maximal"]
    cpath = tmp_path / "packing.json"
    cpath.write_text(out)
    rc, out, _ = run(capsys, "verify", "--certificate", str(cpath))
    assert rc == 0
    assert parse(out)["results"]["valid"] is True


def test_certificate_records_the_exact_alpha(tmp_path, capsys):
    # the float 0.3 lies below 3/10: floor(0.3 * 10) would read 2, where the
    # run used floor(3/10 * 10) = 3
    gpath = tmp_path / "g.g6"
    gpath.write_bytes(graph6_encode(random_graph(10, 0.4, seed=6)) + b"\n")
    rc, out, err = run(capsys, "decompose", "--graph", str(gpath), "--r", "2",
                       "--k", "1", "--alpha", "0.3")
    assert (rc, err) == (0, "")
    res = parse(out)["results"]
    assert res["schema_version"] == 2
    assert res["provenance"]["alpha"] == "3/10"
    assert certificate_from_dict(res)[1].alpha == Fraction(3, 10)


def test_decompose_and_verify_roundtrip(tmp_path, capsys):
    G = random_graph(10, 0.4, seed=6)
    gpath = tmp_path / "g.g6"
    gpath.write_bytes(graph6_encode(G) + b"\n")
    rc, out, _ = run(capsys, "decompose", "--graph", str(gpath), "--r", "2",
                     "--k", "1", "--alpha", "0.25")
    assert rc == 0
    rep = parse(out)
    assert rep["results"]["verified"] is True
    cpath = tmp_path / "cert.json"
    cpath.write_text(out)
    rc, out, _ = run(capsys, "verify", "--certificate", str(cpath))
    assert rc == 0
    assert parse(out)["results"]["valid"] is True


def test_decompose_reads_an_empty_parts_hint(tmp_path, capsys):
    # an empty --parts is a hint with no labels, not a missing one
    argv = ["decompose", "--graph", "{g}", "--r", "2", "--k", "1",
            "--alpha", "0.25", "--parts", ""]
    gpath = tmp_path / "g.g6"
    gpath.write_bytes(graph6_encode(random_graph(14, 0.4, seed=6)) + b"\n")
    rc, out, err = run(capsys, *(a.format(g=gpath) for a in argv))
    assert (rc, out) == (1, "")
    assert "parts hint does not match the graph" in err
    gpath.write_bytes(graph6_encode(Graph(0, ())) + b"\n")
    rc, out, err = run(capsys, *(a.format(g=gpath) for a in argv))
    assert (rc, err) == (0, "")
    res = parse(out)["results"]
    assert res["verified"] is True
    assert res["provenance"]["hint_parts"] == []


def test_census_table(tmp_path, capsys):
    spec = write_spec(tmp_path, complete_graph(2))
    rc, out, _ = run(capsys, "census", "--forbidden", spec, "--n-max", "4")
    assert rc == 0
    rows = parse(out)["results"]["rows"]
    assert [r["count"] for r in rows] == ["1"] * 4
    assert all(r["entropy"] == "0.000000" for r in rows)


@pytest.mark.parametrize("argv, kept", [
    (["census", "--n-max", "5"], 1 + 1 + 2 + 7),
    (["census", "--n-max", "5", "--certify"], 1 + 1 + 2 + 7 + 41),
    (["speed", "--n", "5"], 0),
])
def test_census_derives_each_kept_row_table_once(tmp_path, capsys,
                                                 monkeypatch, argv, kept):
    # one search per prefix met, the members of P_v for v < 5, though
    # speed, and certify_members with --certify, walk every n; a call keeps
    # only the tables a later walk of its own reads
    searches, specs = [], []
    search, load = hereditary._kept_rows, cli.load_property

    def counted(forbidden, v, rows):
        searches.append(v)
        return search(forbidden, v, rows)

    monkeypatch.setattr(hereditary, "_kept_rows", counted)
    monkeypatch.setattr(cli, "load_property",
                        lambda path: specs.append(load(path)) or specs[-1])
    spec = write_spec(tmp_path, complete_graph(3))
    rc, out, _ = run(capsys, *argv, "--forbidden", spec)
    assert rc == 0
    results = parse(out)["results"]
    assert [row["count"] for row in results.get("rows", [results])][-1] == "388"
    assert len(searches) == 1 + 1 + 2 + 7 + 41
    assert len(specs[0].tree) == kept


def test_census_certify(tmp_path, capsys):
    spec = write_spec(tmp_path, complete_graph(3))
    rc, out, _ = run(capsys, "census", "--forbidden", spec, "--n-max", "4",
                     "--certify")
    assert rc == 0
    rows = parse(out)["results"]["rows"]
    assert all("certified_fraction" in r for r in rows)


def test_census_empty_spec_errors(tmp_path, capsys):
    path = tmp_path / "empty.g6"
    path.write_text("")
    rc, _, err = run(capsys, "census", "--forbidden", str(path), "--n-max", "3")
    assert rc == 1
    assert "colouring number" in err


def test_domain_error_exit_code(tmp_path, capsys):
    spec = write_spec(tmp_path, complete_graph(3))
    rc, _, err = run(capsys, "speed", "--forbidden", spec, "--n", "9")
    assert rc == 1 and "error" in err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["speed"])  # missing required flags
    assert exc.value.code == 2


def test_determinism_modulo_timing(tmp_path, capsys):
    spec = write_spec(tmp_path, complete_graph(3))
    outs = []
    for _ in range(2):
        rc, out, _ = run(capsys, "census", "--forbidden", spec, "--n-max", "4")
        assert rc == 0
        rep = parse(out)
        del rep["timing_ms"]
        outs.append(json.dumps(rep, sort_keys=True))
    assert outs[0] == outs[1]


# --- verify on malformed certificates -------------------------------------------

def _certificates():
    """A decomposition certificate and a packing report, as emitted."""
    G = random_graph(10, 0.4, seed=6)
    cert = decompose(G, 2, 1, 0.25)
    H = random_graph(12, 0.5, seed=5)
    parts = tuple(v % 2 for v in range(12))
    packing = extract_universal_packing(H, parts, 1)
    return (certificate_to_dict(cert, G),
            packing_to_dict(packing, H, parts))


DECOMPOSITION, PACKING = _certificates()
# schema 1 wrote alpha as a number
SCHEMA_1 = {**DECOMPOSITION, "schema_version": 1,
            "provenance": {**DECOMPOSITION["provenance"], "alpha": 0.25}}


def verify_text(text) -> tuple[int, str, str]:
    """Run ``verify`` on a certificate file holding ``text`` (str or bytes)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cert.json"
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = main(["verify", "--certificate", str(path)])
    return rc, out.getvalue(), err.getvalue()


def assert_one_line_error(rc, err, needle=""):
    assert rc == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert needle in err


@pytest.mark.parametrize("data", [DECOMPOSITION, PACKING, SCHEMA_1])
def test_verify_accepts_emitted_certificates(data):
    rc, out, _ = verify_text(json.dumps(data))
    assert rc == 0 and parse(out)["results"]["valid"] is True


@pytest.mark.parametrize("text, needle", [
    ("{not json", "not JSON"),
    (b"\xff\xfe\x00garbage", "not JSON"),
    ("[1, 2, 3]", "not a JSON object"),
    ('{"results": 7}', "not a JSON object"),
    ('{"type": "nothing"}', "unknown certificate type"),
])
def test_verify_rejects_unreadable_certificates(text, needle):
    rc, out, err = verify_text(text)
    assert out == ""
    assert_one_line_error(rc, err, needle)


DELETE = object()


def _mutated(data, path, value):
    """A deep copy of ``data`` with the field at ``path`` set to ``value``,
    or deleted when ``value`` is ``DELETE``."""
    data = copy.deepcopy(data)
    *head, last = path
    node = data
    for key in head:
        node = node[key]
    if value is DELETE:
        del node[last]
    else:
        node[last] = value
    return data


@pytest.mark.parametrize("data, path, value, needle", [
    (DECOMPOSITION, ("graph6",), DELETE, "'graph6'"),
    (DECOMPOSITION, ("k",), "1", "'k' must be an integer"),
    (DECOMPOSITION, ("k",), True, "'k' must be an integer"),
    (DECOMPOSITION, ("n",), 11, "'n' is 11"),
    (DECOMPOSITION, ("parts",), [[0, 1]], "1 parts but r = 2"),
    (DECOMPOSITION, ("A",), [10], "'A' must list integers in 0..9"),
    (DECOMPOSITION, ("provenance",), [], "'provenance' must be an object"),
    (DECOMPOSITION, ("provenance", "alpha"), "5/4",
     "'provenance.alpha' must be a rational in (0, 1)"),
    (PACKING, ("graph6",), 5, "'graph6' must be a string"),
    (PACKING, ("graph6",), "é", "out-of-range"),
    (PACKING, ("k",), 0, "'k' must lie in 1..4"),
    (PACKING, ("parts",), [0, 1], "labels 2 vertices"),
    (PACKING, ("r",), 3, "do not use all r = 3 labels"),
    (PACKING, ("pieces", 0, "placement", 0), 2,
     "'pieces[0].placement' must list integers in 0..1"),
    (PACKING, ("pieces", 0, "placement", 0), -1, "'pieces[0].placement'"),
    (PACKING, ("pieces", 0, "layers", 1), [0, "x"], "'pieces[0].layers[1]'"),
    (PACKING, ("residual",), DELETE, "lacks field 'residual'"),
    (PACKING, ("r",), 65, "'r' exceeds the 64-part cap"),
    (DECOMPOSITION, ("budget",), float("nan"), "'budget' must be a finite number"),
    (DECOMPOSITION, ("provenance", "alpha"), float("inf"),
     "'provenance.alpha' must be a rational in (0, 1)"),
    (DECOMPOSITION, ("provenance", "eps_out"), float("-inf"),
     "'provenance.eps_out' must be a finite number"),
    (DECOMPOSITION, ("k",), 5, "'k' must lie in 1..4"),
    (DECOMPOSITION, ("provenance", "alpha"), "1/x",
     "'provenance.alpha' must be a rational in (0, 1)"),
    (SCHEMA_1, ("provenance", "alpha"), 0, "'provenance.alpha' must be a rational"),
    (DECOMPOSITION, ("provenance", "alpha"), True,
     "'provenance.alpha' must be a rational string or a number"),
    (DECOMPOSITION, ("schema_version",), 7, "'schema_version' must be 1 or 2"),
    (DECOMPOSITION, ("schema_version",), 0, "'schema_version' must be 1 or 2"),
    (DECOMPOSITION, ("schema_version",), "x", "'schema_version' must be an integer"),
    (DECOMPOSITION, ("schema_version",), None, "'schema_version' must be an integer"),
    (DECOMPOSITION, ("schema_version",), DELETE, "lacks field 'schema_version'"),
    (PACKING, ("schema_version",), 2, "'schema_version' must be 1"),
    (PACKING, ("schema_version",), None, "'schema_version' must be an integer"),
    (DECOMPOSITION, ("provenance", "hint_parts"),
     DECOMPOSITION["provenance"]["hint_parts"][:-1],
     "'provenance.hint_parts' labels 9 vertices but its graph has 10"),
    (DECOMPOSITION, ("provenance", "hint_parts"),
     DECOMPOSITION["provenance"]["hint_parts"] + [0],
     "'provenance.hint_parts' labels 11 vertices but its graph has 10"),
    (DECOMPOSITION, ("provenance", "adjusted_labels"),
     DECOMPOSITION["provenance"]["adjusted_labels"][:-1],
     "'provenance.adjusted_labels' labels 9 vertices but its graph has 10"),
    (DECOMPOSITION, ("provenance", "hint_parts"), DELETE,
     "lacks field 'provenance.hint_parts'"),
])
def test_verify_rejects_malformed_fields(data, path, value, needle):
    rc, out, err = verify_text(json.dumps(_mutated(data, path, value)))
    assert out == ""
    assert_one_line_error(rc, err, needle)


def test_verify_reports_overlapping_layers():
    # once an overlapping pair of layers reached the shattering check, which
    # raised "A and B overlap" with no field named
    G = random_graph(16, 0.5, seed=11)
    parts = tuple(v % 2 for v in range(16))
    data = packing_to_dict(extract_universal_packing(G, parts, 1), G, parts)
    layers = data["pieces"][0]["layers"]
    layers[1][0] = layers[0][0]
    rc, out, err = verify_text(json.dumps(data))
    assert (rc, err) == (0, "")
    assert parse(out)["results"]["valid"] is False
    assert "piece 0: layers overlap" in parse(out)["results"]["problems"]


def _above_the_cap():
    """A 64-vertex packing report and decomposition certificate: sparse, no
    pieces, and two parts of 32 vertices in the certificate."""
    G = random_graph(64, 0.02, seed=64)
    halves = ((1 << 32) - 1, ((1 << 32) - 1) << 32)
    cert = DecompositionCertificate(
        n=64, r=2, k=1, exceptional=0, parts=halves,
        hint=(0,) * 32 + (1,) * 32, bad_set=0,
        adjusted_labels=(0,) * 32 + (1,) * 32, adjustment_ok=True,
        pieces=(), alpha=Fraction(1, 4),
        eps_out=0.5, budget=8.0, budget_ok=True)
    return [packing_to_dict(PackingReport((), (G.vertex_mask,), 4, 1), G,
                            (0,) * 64),
            certificate_to_dict(cert, G)]


@pytest.mark.parametrize("data", _above_the_cap(), ids=["packing", "decomposition"])
def test_verify_refuses_hosts_above_the_packing_cap(monkeypatch, data):
    # the packing report once ran the maximality search for 16 s and read
    # valid; the certificate verified with parts of at most 40 vertices
    def refuse(*args):
        raise AssertionError("searched a host above the cap")

    for name in ("decomposition_failures", "provenance_failures",
                 "verify_packing_report", "verify_packing_maximality"):
        monkeypatch.setattr(hptools.cli, name, refuse)
    rc, out, err = verify_text(json.dumps(data))
    assert out == ""
    assert_one_line_error(rc, err, "packing capped at 40 vertices")


# K3 at r = 2, k = 1, alpha = 1/4: |A| = 2 misses the budget 3^(1/2)
K3_CERTIFICATE = certificate_to_dict(
    decompose(complete_graph(3), 2, 1, Fraction(1, 4)), complete_graph(3))


@pytest.mark.parametrize("data, field, value", [
    (K3_CERTIFICATE, "budget_ok", True),
    (K3_CERTIFICATE, "budget", -1),
    (K3_CERTIFICATE, "budget", 2.0),
    (DECOMPOSITION, "budget_ok", not DECOMPOSITION["budget_ok"]),
    (DECOMPOSITION, "budget", DECOMPOSITION["budget"] + 1),
])
def test_verify_refuses_a_forged_budget_claim(data, field, value):
    assert (len(K3_CERTIFICATE["A"]), K3_CERTIFICATE["budget_ok"]) == (2, False)
    rc, out, _ = verify_text(json.dumps(data))
    assert rc == 0 and parse(out)["results"]["valid"] is True
    rc, out, _ = verify_text(json.dumps({**data, field: value}))
    assert rc == 0 and parse(out)["results"]["valid"] is False


def test_verify_budget_eps_adds_the_one_budget_problem(tmp_path, capsys):
    path = tmp_path / "k3.json"
    path.write_text(json.dumps(K3_CERTIFICATE))
    rc, out, _ = run(capsys, "verify", "--certificate", str(path))
    assert rc == 0 and parse(out)["results"]["valid"] is True
    rc, out, _ = run(capsys, "verify", "--certificate", str(path),
                     "--budget-eps", "0.5")
    assert rc == 0
    assert {key: parse(out)["results"][key] for key in ("valid", "problems")} \
        == {"valid": False, "problems": ["|A| = 2 exceeds n^(1-eps) = 1.732"]}


# perfbench's certify pool graphs for n = 10, r = 2 (decompose's default
# hint is the toy partition) and n = 28, r = 3 (the minimum-intra-edge one)
POOL_10 = "I|~MOGgyW"
POOL_28 = r"[__BAvF_w^y?_bv^urkAPw`i@@LkLUN]u^zXjvy~Mn]oNdvDz|^e~Jfy~L\tEP?A"


def _decomposed(g6: str, r: int, **kwargs) -> dict:
    G = graph6_decode(g6)
    return certificate_to_dict(decompose(G, r, 1, Fraction(1, 4), **kwargs), G)


# k = 1: bad set {0}; nine 2-level pieces, the first with layers {0} and
# {1, 2}; every vertex adjusted into part 0; A all but vertex 26
POOL_CERT = _decomposed(POOL_28, 3)


def _tamper(data, edit):
    data = copy.deepcopy(data)
    edit(data, data.get("provenance"))
    return data


def _swap_first_layers(data, prov):
    # {0, 1} must realize both traces on {2}, but neither 0 nor 1 is
    # adjacent to 2
    prov["packing"]["pieces"][0]["layers"] = [[2], [0, 1]]


def _move_label(data, prov):
    prov["adjusted_labels"][26] = 1
    data["parts"] = [[], [26], []]


def _add_close_vertex(data, prov):
    # 26 and 0 differ on fewer than floor(2 alpha n) = 14 vertices of some
    # hint part
    prov["bad_set"].append(26)
    data["A"].append(26)
    data["parts"] = [[], [], []]


@pytest.mark.parametrize("base, edit, problems", [
    (POOL_CERT, lambda data, prov: prov.update(bad_set=[]),
     ["provenance.bad_set: vertex 0 has no clone in B within any part "
      "(the bad set is not maximal)"]),
    (POOL_CERT, lambda data, prov: prov["packing"]["pieces"].pop(),
     ["A is not what the provenance gives",
      "parts is not what the provenance gives"]),
    (POOL_CERT, _move_label,
     ["provenance.adjusted_labels is not the alpha-adjustment of "
      "provenance.hint_parts"]),
    (POOL_CERT, lambda data, prov: prov.update(adjustment_ok=True),
     ["provenance.adjustment_ok does not say whether each part moved by at "
      "most alpha n"]),
    (POOL_CERT, _swap_first_layers,
     ["provenance.packing.pieces: piece 0 fails its shattering chain"]),
    (POOL_CERT, _add_close_vertex,
     ["provenance.bad_set holds 0 and 26, which are not (2 alpha)-far "
      "inside every hint part"]),
    (PACKING, lambda data, prov: data.update(residual=[[], []]),
     ["residual is not each part minus the packed vertices"]),
], ids=["bad-set-emptied", "piece-dropped", "label-moved",
        "adjustment-ok-flipped", "layers-swapped", "close-vertex-added",
        "residual-emptied"])
def test_verify_names_each_tampered_field(base, edit, problems):
    # each of these once read valid: the provenance and the residual were
    # parsed and then ignored
    rc, out, _ = verify_text(json.dumps(base))
    assert rc == 0 and parse(out)["results"]["problems"] == []
    rc, out, err = verify_text(json.dumps(_tamper(base, edit)))
    results = parse(out)["results"]
    assert (rc, err, results["valid"]) == (0, "", False)
    assert results["problems"] == problems


def test_decompose_reproduces_the_pinned_pool_certificates(tmp_path, capsys):
    # perfbench's certify references, read and never rewritten here: a hint
    # change that moves a label fails this test, not only the benchmark
    pinned = Path(__file__).resolve().parents[1] / "perfbench" / "reference" \
        / "certify.json"
    pool = json.loads(pinned.read_text())
    assert len(pool) == 66
    gpath = tmp_path / "g.g6"
    for entry in pool:
        gpath.write_text(entry["graph6"] + "\n")
        for k in ("1", "2"):
            rc, out, _ = run(capsys, "decompose", "--graph", str(gpath), "--r",
                             str(entry["r"]), "--k", k, "--alpha", "0.25")
            assert rc == 0
            res = parse(out)["results"]
            prov = res["provenance"]
            got = {"A": res["A"], "parts": res["parts"],
                   "bad_set": prov["bad_set"],
                   "adjusted_labels": prov["adjusted_labels"],
                   "pieces": [{f: p[f] for f in ("level", "layers", "placement")}
                              for p in prov["packing"]["pieces"]]}
            assert got == entry["expected"][k]["certificate"], (entry["n"], k)


@pytest.mark.parametrize("g6, r", [(POOL_10, 2), (POOL_28, 3)],
                         ids=["toy-hint", "min-intra-edges-hint"])
def test_verify_reads_a_null_hint_as_the_default_hint(g6, r):
    # certificates written without --parts once recorded hint_parts: null
    data = _decomposed(g6, r)
    data["provenance"]["hint_parts"] = None
    rc, out, _ = verify_text(json.dumps(data))
    assert rc == 0 and parse(out)["results"]["problems"] == []


def test_verify_replays_a_null_hint_from_the_default_hint():
    # an empty part 1 in the hint gives another adjustment than the toy
    # hint does
    data = _decomposed(POOL_10, 2, parts_hint=[0] * 10)
    assert _decomposed(POOL_10, 2)["provenance"]["adjusted_labels"] != \
        data["provenance"]["adjusted_labels"]
    rc, out, _ = verify_text(json.dumps(data))
    assert rc == 0 and parse(out)["results"]["valid"] is True
    data["provenance"]["hint_parts"] = None
    rc, out, _ = verify_text(json.dumps(data))
    assert "provenance.adjusted_labels is not the alpha-adjustment of " \
        "provenance.hint_parts" in parse(out)["results"]["problems"]


def test_verify_refuses_budget_eps_on_a_packing_report(tmp_path, capsys):
    # it was echoed in params and never applied
    path = tmp_path / "pack.json"
    path.write_text(json.dumps(PACKING))
    rc, out, err = run(capsys, "verify", "--certificate", str(path),
                       "--budget-eps", "0.5")
    assert out == ""
    assert_one_line_error(rc, err, "--budget-eps applies to decomposition "
                                   "certificates only")


def _field_paths(node, prefix=()):
    """Every path to a value inside nested dicts and lists."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _field_paths(value, prefix + (key,))


FIELD_VALUES = st.one_of(
    st.just(DELETE), st.none(), st.booleans(), st.integers(-3, 2 ** 70),
    st.floats(), st.text(max_size=3),
    st.lists(st.integers(-2, 70), max_size=4),
    st.lists(st.lists(st.integers(-2, 12), max_size=3), max_size=3),
    st.dictionaries(st.sampled_from(["level", "layers", "placement"]),
                    st.integers(-1, 3), max_size=2))


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_verify_never_raises_on_mutated_fields(data):
    base = data.draw(st.sampled_from([DECOMPOSITION, PACKING]))
    path = data.draw(st.sampled_from(sorted(_field_paths(base), key=repr)))
    mutated = _mutated(base, path, data.draw(FIELD_VALUES))
    rc, _, err = verify_text(json.dumps(mutated))
    assert rc in (0, 1)
    if rc == 1:
        assert_one_line_error(rc, err)


@given(st.binary(max_size=64))
@settings(max_examples=40, deadline=None)
def test_verify_never_raises_on_arbitrary_bytes(raw):
    rc, _, err = verify_text(raw)
    assert_one_line_error(rc, err)


@pytest.mark.parametrize("graph_bytes, needle", [
    (graph6_encode(random_graph(9, 0.4, seed=1)) + b"\n", "--graph has 9 vertices"),
    (b"\xff\xfe\n", "not UTF-8 text"),
])
def test_verify_cross_check_graph_must_match(tmp_path, graph_bytes, needle):
    gpath = tmp_path / "g.g6"
    gpath.write_bytes(graph_bytes)
    cpath = tmp_path / "cert.json"
    cpath.write_text(json.dumps(DECOMPOSITION))
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        rc = main(["verify", "--certificate", str(cpath), "--graph", str(gpath)])
    assert_one_line_error(rc, err.getvalue(), needle)


def test_pack_parts_must_match_graph(tmp_path, capsys):
    gpath = tmp_path / "g.g6"
    gpath.write_bytes(graph6_encode(random_graph(6, 0.5, seed=2)) + b"\n")
    rc, _, err = run(capsys, "pack", "--graph", str(gpath),
                     "--parts", "0,1,0", "--k", "1")
    assert_one_line_error(rc, err, "parts do not match the graph")
    rc, _, err = run(capsys, "pack", "--graph", str(gpath),
                     "--parts", "0,1,0,1,0,1", "--k", "0")
    assert_one_line_error(rc, err, "--k must lie in 1..4")


# --- vertex, label and pattern options -----------------------------------------

@pytest.mark.parametrize("argv, needle", [
    (["shatter", "--graph", "{g}", "--A", "0,a", "--B", "1"], "--A lists 'a'"),
    (["shatter", "--graph", "{g}", "--A", "-1", "--B", "1"], "--A lists '-1'"),
    (["shatter", "--graph", "{g}", "--A", "0", "--B", "1,6"],
     "--B lists a vertex outside 0..5"),
    (["pack", "--graph", "{g}", "--parts", "0,x,1,0,1,1", "--k", "1"],
     "--parts lists 'x'"),
    (["decompose", "--graph", "{g}", "--parts", "0,1,1.5,0,1,1", "--r", "2",
      "--k", "1", "--alpha", "0.25"], "--parts lists '1.5'"),
    (["sparsen", "--graph", "{g}", "--parts", "0,0,0,1,z,1", "--core", "0,3",
      "--t", "1", "--alpha", "0.25"], "--parts lists 'z'"),
    (["sparsen", "--graph", "{g}", "--parts", "0,0,0,1,1,1", "--core", "0;3",
      "--t", "1", "--alpha", "0.25"], "--core lists '0;3'"),
    (["sparsen", "--graph", "{g}", "--parts", "0,0,0,1,1,1", "--core", "9",
      "--t", "1", "--alpha", "0.25"], "--core lists a vertex outside 0..5"),
    (["sparsen", "--graph", "{g}", "--t", "1", "--alpha", "0.25"],
     "sparsen needs --parts"),
    (["sparsen", "--alpha", "0.25"], "sparsen needs --bipgraph"),
    (["construct", "--k", "1", "--r", "3", "--v", "0x1"],
     "--v is '0x1', not a pattern of 0s and 1s"),
    (["sparsen", "--bipgraph", "{bg}", "--usub", "0,\u0663", "--alpha", "0.25"],
     "--usub lists '\u0663'"),
    (["sparsen", "--bipgraph", "{bg}", "--usub", "0,5", "--alpha", "0.25"],
     "--usub lists a vertex outside 0..4"),
    (["pack", "--graph", "{g}", "--parts", "0,0,0,1,1,64", "--k", "1"],
     "--parts lists a label outside 0..63"),
    (["decompose", "--graph", "{g}", "--parts", "0,0,0,1,1,64", "--r", "2",
      "--k", "1", "--alpha", "0.25"], "--parts lists a label outside 0..63"),
    (["decompose", "--graph", "{g}", "--r", "65", "--k", "1",
      "--alpha", "0.25"], "--r exceeds the 64-part cap"),
    (["sparsen", "--graph", "{g}", "--parts", "0,0,0,1,1,64", "--core", "0,3",
      "--t", "1", "--alpha", "0.25"], "--parts lists a label outside 0..63"),
    (["sparsen", "--graph", "{g}", "--parts", "", "--core", "0,3", "--t", "1",
      "--alpha", "0.25"], "parts do not match the graph"),
    (["sparsen", "--graph", "{g}", "--parts", "0,0,0,1,1,1,1", "--core", "0,3",
      "--t", "1", "--alpha", "0.25"], "parts do not match the graph"),
    (["separated", "--bipgraph", "{bg}", "--x", "0", "--k", "2"],
     "ceiling needs x, k, m >= 1; got x = 0"),
    (["separated", "--bipgraph", "{bg}", "--x", "2", "--k", "100000"],
     "--k must lie in 1..4"),
    (["separated", "--bipgraph", "{bg0}", "--side", "A", "--x", "1", "--k", "2"],
     "ceiling needs x, k, m >= 1; got x = 1, k = 2, m = 0"),
    (["count-free", "--m", "-1", "--n", "3", "--k", "1"],
     "sides must be non-negative; got m = -1, n = 3"),
    (["count-free", "--m", "3", "--n", "-1", "--k", "1"],
     "sides must be non-negative; got m = 3, n = -1"),
    (["count-free", "--m", "2", "--n", "2", "--k", "0"], "--k must lie in 1..4"),
    (["count-free", "--m", "2", "--n", "2", "--k", "5"], "--k must lie in 1..4"),
    (["count-attach", "--a", "0", "--n", "2"], "--a must lie in 1..4"),
    (["count-attach", "--a", "5", "--n", "2"], "--a must lie in 1..4"),
    (["count-attach", "--a", "2", "--n", "-1"], "need n >= 0 and a*n <= 25"),
    (["count-attach", "--a", "2", "--n", "13"], "need n >= 0 and a*n <= 25"),
    (["construct", "--k", "1", "--v", ""], "--v is '', not a pattern of 0s and 1s"),
    (["construct", "--k", "1", "--r", "2", "--v", ","],
     "--v is ',', not a pattern of 0s and 1s"),
])
def test_malformed_list_options_exit_1(tmp_path, capsys, argv, needle):
    gpath = tmp_path / "g.g6"
    gpath.write_bytes(graph6_encode(random_graph(6, 0.5, seed=2)) + b"\n")
    bgpath = tmp_path / "bg.txt"
    bgpath.write_text(bipgraph_encode(random_bipgraph(5, 4, 0.5, seed=1)))
    bg0path = tmp_path / "bg0.txt"
    bg0path.write_text("0 3\n")
    argv = [a.format(g=gpath, bg=bgpath, bg0=bg0path) for a in argv]
    rc, out, err = run(capsys, *argv)
    assert out == ""
    assert_one_line_error(rc, err, needle)


# --- one parser per process --------------------------------------------------------

def test_cached_parser_parses_like_a_fresh_one():
    decompose_argv = ["decompose", "--graph", "g", "--r", "2", "--k", "1",
                      "--alpha", "0.25"]
    census_argv = ["census", "--forbidden", "s", "--n-max", "3"]
    argvs = [
        decompose_argv,
        decompose_argv + ["--parts", "0,1"],
        decompose_argv,
        census_argv + ["--certify"],
        census_argv + ["--no-certify"],
        census_argv,
        ["pack", "--graph", "g", "--parts", "0", "--k", "1"],
        ["verify", "--certificate", "c", "--budget-eps", "0.5"],
        ["verify", "--certificate", "c"],
    ]
    cached = build_parser()
    assert build_parser() is cached
    for argv in argvs:
        fresh = build_parser.__wrapped__()
        assert vars(cached.parse_args(argv)) == vars(fresh.parse_args(argv))


# Every option of every subcommand, so that a new option shows up as a test
# change.  What the input decides, such as the graph format or an exact or
# greedy search, has no option.
OPTIONS = {
    "construct": {"--k", "--r", "--v"},
    "shatter": {"--graph", "--A", "--B"},
    "chi-c": {"--forbidden", "--r-max"},
    "speed": {"--forbidden", "--n"},
    "census": {"--forbidden", "--n-max", "--eps", "--alpha", "--k",
               "--budget-eps", "--certify", "--no-certify"},
    "count-free": {"--m", "--n", "--k", "--mode"},
    "count-attach": {"--a", "--n"},
    "separated": {"--bipgraph", "--side", "--x", "--k"},
    "sparsen": {"--bipgraph", "--usub", "--graph", "--parts", "--core",
                "--alpha", "--t", "--direction", "--seed"},
    "pack": {"--graph", "--parts", "--k"},
    "decompose": {"--graph", "--r", "--k", "--alpha", "--parts", "--eps-out"},
    "verify": {"--certificate", "--graph", "--budget-eps"},
}


def _reject_constant(name):
    raise ValueError(f"{name} is no JSON number")


def test_every_subcommand_prints_one_strict_json_report(tmp_path, capsys):
    G = random_graph(10, 0.4, seed=6)
    g = tmp_path / "g.g6"
    g.write_bytes(graph6_encode(G) + b"\n")
    bg = tmp_path / "bg.txt"
    bg.write_text(bipgraph_encode(BipGraph(2, 8, (0, 0b11111111))))
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(DECOMPOSITION))
    spec = write_spec(tmp_path, complete_graph(3))
    argvs = {
        "construct": ["--k", "2"],
        "shatter": ["--graph", g, "--A", "0,1,2,3", "--B", "4,5"],
        "chi-c": ["--forbidden", spec],
        "speed": ["--forbidden", spec, "--n", "4"],
        "census": ["--forbidden", spec, "--n-max", "3", "--certify"],
        "count-free": ["--m", "2", "--n", "2", "--k", "1"],
        "count-attach": ["--a", "2", "--n", "3"],
        "separated": ["--bipgraph", bg, "--x", "3", "--k", "2"],
        "sparsen": ["--bipgraph", bg, "--alpha", "1/4"],
        "pack": ["--graph", g, "--parts", "0,1,0,1,0,1,0,1,0,1", "--k", "1"],
        "decompose": ["--graph", g, "--r", "2", "--k", "1", "--alpha", "0.25"],
        "verify": ["--certificate", cert],
    }
    assert set(argvs) == set(OPTIONS)
    for command, argv in argvs.items():
        argv = [command, *map(str, argv)]
        rc, out, err = run(capsys, *argv)
        assert (rc, err) == (0, ""), command
        assert out.endswith("\n") and out.count("\n") == 1, command
        report = json.loads(out, parse_constant=_reject_constant)
        assert set(report) == {"tool", "version", "command", "params", "seed",
                               "results", "timing_ms"}
        assert (report["tool"], report["version"], report["command"]) == \
            ("hptools", hptools.__version__, command)
        # --format is an unknown option, as any other
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--format", "json"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --format json" in capsys.readouterr().err


@pytest.mark.parametrize("command", sorted(OPTIONS))
def test_a_commands_own_parser_reads_as_the_full_one(capsys, command):
    # main builds only the subparser argv[0] names; its help and its usage
    # errors must be the full parser's, byte for byte
    own, full = build_parser(command), build_parser()
    assert own is build_parser(command) and own is not full
    for argv in ([command, "--help"], [command], [command, "--bogus", "1"]):
        seen = []
        for parser in (own, full):
            with pytest.raises(SystemExit) as exit_:
                parser.parse_args(argv)
            out = capsys.readouterr()
            seen.append((exit_.value.code, out.out, out.err))
        assert seen[0] == seen[1]
        assert seen[0][0] == (0 if "--help" in argv else 2)


def test_option_inventory_is_pinned():
    top = build_parser()
    (sub,) = [a for a in top._actions
              if isinstance(a, argparse._SubParsersAction)]
    found = {name: {opt for action in parser._actions
                    for opt in action.option_strings} - {"-h", "--help"}
             for name, parser in sub.choices.items()}
    assert found == OPTIONS


@pytest.mark.parametrize("argv", [
    ["shatter", "--graph", "{g}", "--A", "0,1,2,3", "--B", "4,5"],
    ["pack", "--graph", "{g}", "--parts", "0,1,0,1,0,1,0,1,0,1", "--k", "1"],
    ["decompose", "--graph", "{g}", "--r", "2", "--k", "1", "--alpha", "0.25"],
    ["verify", "--certificate", "{c}", "--graph", "{g}"],
])
def test_edge_list_and_graph6_files_give_identical_results(tmp_path, capsys,
                                                           argv):
    G = random_graph(10, 0.4, seed=6)
    cpath = tmp_path / "cert.json"
    cpath.write_text(json.dumps(DECOMPOSITION))
    g6path = tmp_path / "g.g6"
    g6path.write_bytes(graph6_encode(G) + b"\n")
    elpath = tmp_path / "g.txt"
    elpath.write_text("\n" + edgelist_encode(G))
    results = []
    for gpath in (g6path, elpath):
        rc, out, err = run(capsys, *(a.format(g=gpath, c=cpath) for a in argv))
        assert (rc, err) == (0, "")
        results.append(parse(out)["results"])
    assert results[0] == results[1]


def test_repeated_main_calls_emit_the_same_report(tmp_path, capsys):
    gpath = tmp_path / "g.g6"
    gpath.write_bytes(graph6_encode(random_graph(11, 0.4, seed=3)) + b"\n")
    reports = []
    for _ in range(2):
        rc, out, _ = run(capsys, "decompose", "--graph", str(gpath), "--r", "2",
                         "--k", "1", "--alpha", "0.25")
        assert rc == 0
        rep = parse(out)
        del rep["timing_ms"]
        reports.append(rep)
    assert reports[0] == reports[1]


def test_used_parser_still_exits_on_version_and_bad_commands(capsys):
    assert main(["count-free", "--m", "2", "--n", "2", "--k", "1"]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == hptools.__version__
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_python_m_hptools_runs_the_cli():
    env = dict(os.environ,
               PYTHONPATH=str(Path(hptools.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "hptools", "--version"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.strip() == hptools.__version__


# --- numeric options ------------------------------------------------------------

@pytest.mark.parametrize("argv, option", [
    (["decompose", "--graph", "{g}", "--r", "2", "--k", "1", "--alpha", "nan"],
     "--alpha"),
    (["decompose", "--graph", "{g}", "--r", "2", "--k", "1", "--alpha", "inf"],
     "--alpha"),
    (["decompose", "--graph", "{g}", "--r", "2", "--k", "1", "--alpha", "-1"],
     "--alpha"),
    (["decompose", "--graph", "{g}", "--r", "2", "--k", "1", "--alpha", "1.5"],
     "--alpha"),
    (["decompose", "--graph", "{g}", "--r", "2", "--k", "1", "--alpha", "0"],
     "--alpha"),
    (["decompose", "--graph", "{g}", "--r", "2", "--k", "1", "--alpha", "1"],
     "--alpha"),
    (["decompose", "--graph", "{g}", "--r", "2", "--k", "1", "--alpha", "x"],
     "--alpha"),
    (["decompose", "--graph", "{g}", "--r", "2", "--k", "1", "--alpha", "0.25",
      "--eps-out", "nan"], "--eps-out"),
    (["census", "--forbidden", "{s}", "--n-max", "3", "--certify",
      "--alpha", "nan"], "--alpha"),
    (["census", "--forbidden", "{s}", "--n-max", "3", "--alpha", "1.5"],
     "--alpha"),
    (["census", "--forbidden", "{s}", "--n-max", "3", "--eps", "inf"], "--eps"),
    (["census", "--forbidden", "{s}", "--n-max", "3", "--certify",
      "--budget-eps", "-inf"], "--budget-eps"),
    (["verify", "--certificate", "{c}", "--budget-eps", "nan"], "--budget-eps"),
    (["sparsen", "--graph", "{g}", "--parts", "0,0,0,1,1,1", "--core", "0,3",
      "--t", "1", "--alpha", "nan"], "--alpha"),
    (["decompose", "--graph", "{g}", "--r", "2", "--k", "1", "--alpha", "1/0"],
     "--alpha"),
    (["decompose", "--graph", "{g}", "--r", "2", "--k", "1", "--alpha", "4/4"],
     "--alpha"),
    (["decompose", "--graph", "{g}", "--r", "2", "--k", "1", "--alpha", "1/4",
      "--eps-out", "1e400"], "--eps-out"),
    (["census", "--forbidden", "{s}", "--n-max", "3", "--eps", "-1/0"], "--eps"),
    (["sparsen", "--graph", "{g}", "--parts", "0,0,0,1,1,1", "--core", "0,3",
      "--t", "1", "--alpha", "1e-500"], "--alpha"),
    # exact values inside (0, 1) whose floats, which reports print, are 0 and 1
    (["decompose", "--graph", "{g}", "--r", "2", "--k", "1", "--alpha",
      "1e-330"], "--alpha"),
    (["decompose", "--graph", "{g}", "--r", "2", "--k", "1", "--alpha",
      "0.99999999999999999"], "--alpha"),
])
def test_non_finite_or_out_of_range_options_exit_2(tmp_path, capsys, argv, option):
    gpath = tmp_path / "g.g6"
    gpath.write_bytes(graph6_encode(random_graph(6, 0.5, seed=2)) + b"\n")
    cpath = tmp_path / "cert.json"
    cpath.write_text(json.dumps(DECOMPOSITION))
    spec = write_spec(tmp_path, complete_graph(3))
    with pytest.raises(SystemExit) as exc:
        main([a.format(g=gpath, s=spec, c=cpath) for a in argv])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert f"error: argument {option}: " in err


@given(st.one_of(st.text(max_size=12), st.from_regex(
    r"[-+]?[0-9]{0,4}(\.[0-9]{0,4})?([eE][-+]?[0-9]{1,7})?(/[0-9]{1,4})?",
    fullmatch=True)))
@settings(max_examples=300, deadline=2000)
def test_rational_option_is_a_finite_fraction_or_a_usage_error(text):
    # an exponent of 10^7 once took Fraction 10 s to expand
    try:
        value = _rational(text)
    except argparse.ArgumentTypeError:
        return
    assert isinstance(value, Fraction) and math.isfinite(float(value))


@pytest.mark.parametrize("n, eps_out", [(10, "-2000"), (0, "2")])
def test_decompose_budget_that_is_no_finite_float_exits_1(tmp_path, capsys,
                                                        n, eps_out):
    gpath = tmp_path / "g.g6"
    gpath.write_bytes(graph6_encode(random_graph(n, 0.5, seed=2)) + b"\n")
    rc, out, err = run(capsys, "decompose", "--graph", str(gpath), "--r", "2",
                       "--k", "1", "--alpha", "0.25", "--eps-out", eps_out)
    assert out == ""
    assert_one_line_error(rc, err, "budget n^(1-eps) is not finite")


@pytest.mark.parametrize("k", ["-1", "0", "65"])
def test_census_k_outside_levels_exits_1(tmp_path, capsys, k):
    spec = write_spec(tmp_path, complete_graph(3))
    rc, out, err = run(capsys, "census", "--forbidden", spec, "--n-max", "4",
                       "--certify", "--k", k)
    assert out == ""
    assert_one_line_error(rc, err, "--k must lie in 1..4")


@pytest.mark.parametrize("argv, stage", [
    (["pack", "--graph", "{g}", "--parts", "{p}", "--k", "5"],
     "extract_universal_packing"),
    (["decompose", "--graph", "{g}", "--r", "2", "--k", "5", "--alpha", "0.25"],
     "decompose"),
    (["census", "--forbidden", "{s}", "--n-max", "5", "--certify", "--k", "5"],
     "speed"),
])
def test_level_above_the_uk_search_cap_exits_1_at_entry(tmp_path, capsys,
                                                        monkeypatch, argv, stage):
    # U(5) has 37 vertices: a 40-vertex graph could hold one, but the U(k)
    # search that would check it stops at level 4, so k = 5 exits first
    def refuse(*args, **kwargs):
        raise AssertionError(f"{stage} ran before --k was checked")

    monkeypatch.setattr(hptools.cli, stage, refuse)
    gpath = tmp_path / "g.g6"
    gpath.write_bytes(graph6_encode(random_graph(40, 0.5, seed=2)) + b"\n")
    spec = write_spec(tmp_path, complete_graph(3))
    argv = [a.format(g=gpath, s=spec, p=",".join(str(v % 2) for v in range(40)))
            for a in argv]
    rc, out, err = run(capsys, *argv)
    assert out == ""
    assert_one_line_error(rc, err, "--k must lie in 1..4")


@pytest.mark.parametrize("n", [41, 50])
def test_decompose_above_the_packing_cap_exits_1_at_entry(tmp_path, capsys,
                                                         monkeypatch, n):
    def refuse(*args, **kwargs):
        raise AssertionError("decompose ran a stage before checking n")

    for stage in ("_budget", "default_parts", "max_bad_set"):
        monkeypatch.setattr(hptools.structure, stage, refuse)
    gpath = tmp_path / "g.g6"
    gpath.write_bytes(graph6_encode(random_graph(n, 0.5, seed=2)) + b"\n")
    rc, out, err = run(capsys, "decompose", "--graph", str(gpath), "--r", "2",
                       "--k", "1", "--alpha", "0.25")
    assert out == ""
    assert_one_line_error(rc, err, "packing capped at 40 vertices")


def test_census_budget_that_is_no_finite_float_exits_1(tmp_path, capsys):
    spec = write_spec(tmp_path, complete_graph(3))
    rc, out, err = run(capsys, "census", "--forbidden", spec, "--n-max", "4",
                       "--certify", "--budget-eps", "-2000")
    assert out == ""
    assert_one_line_error(rc, err, "budget n^(1-eps) is not finite for n = 4")


def test_census_above_the_enumeration_cap_exits_before_enumerating(
        tmp_path, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("census enumerated before checking --n-max")

    monkeypatch.setattr(hptools.cli, "speed", refuse)
    spec = write_spec(tmp_path, path_graph(4))
    rc, out, err = run(capsys, "census", "--forbidden", spec, "--n-max", "9")
    assert out == ""
    assert_one_line_error(rc, err, "enumeration capped at n <= 8")


@pytest.mark.parametrize("argv, needle", [
    (["census", "--n-max", "-1"], "--n-max must lie in 0..8"),
    (["census", "--n-max", "-1", "--certify"], "--n-max must lie in 0..8"),
    (["speed", "--n", "-1"], "n must lie in 0..8"),
])
def test_negative_orders_exit_1_before_enumerating(tmp_path, capsys, monkeypatch,
                                                   argv, needle):
    # a negative order once read as an empty census, or as above the cap
    def refuse(*args):
        raise AssertionError("enumerated a negative order")

    monkeypatch.setattr(hptools.hereditary, "grow_rows", refuse)
    monkeypatch.setattr(hptools.cli, "count_hrv", refuse)
    spec = write_spec(tmp_path, complete_graph(3))
    rc, out, err = run(capsys, *argv, "--forbidden", spec)
    assert out == ""
    assert_one_line_error(rc, err, needle)
    assert "capped" not in err


@pytest.mark.parametrize("eps", ["0", "-3", "3/2"])
@pytest.mark.parametrize("n_max", ["0", "3"])
def test_census_eps_outside_the_unit_interval_exits_1_before_enumerating(
        tmp_path, capsys, monkeypatch, eps, n_max):
    # --n-max 0 once exited 0 and echoed the bad eps in params
    def refuse(*args):
        raise AssertionError("census enumerated before checking --eps")

    monkeypatch.setattr(hptools.hereditary, "grow_rows", refuse)
    monkeypatch.setattr(hptools.cli, "count_hrv", refuse)
    spec = write_spec(tmp_path, complete_graph(3))
    rc, out, err = run(capsys, "census", "--forbidden", spec, "--n-max", n_max,
                       f"--eps={eps}")
    assert out == ""
    assert_one_line_error(rc, err, "eps must lie in (0, 1]")


# --- census rows -----------------------------------------------------------------

# (count, hrv_lower, certified_fraction) for n = 1..5; P4-free members mostly
# fail certification, so its rows exercise the failing path of decompose
CENSUS_ROWS = {
    "K3": (3, [(0, 1), (1, 2), (0, 2)], [
        ("1", "1", "1/1"), ("2", "2", "1/2"), ("7", "7", "1/7"),
        ("41", "41", "41/41"), ("388", "376", "388/388")]),
    "C4": (4, [(0, 1), (1, 2), (2, 3), (3, 0)], [
        ("1", "1", "1/1"), ("2", "2", "1/2"), ("8", "8", "1/8"),
        ("61", "58", "61/61"), ("834", "632", "834/834")]),
    "P4": (4, [(0, 1), (1, 2), (2, 3)], [
        ("1", "1", "1/1"), ("2", "1", "1/2"), ("8", "1", "1/8"),
        ("52", "1", "26/52"), ("472", "1", "76/472")]),
    "claw": (4, [(0, 1), (0, 2), (0, 3)], [
        ("1", "1", "1/1"), ("2", "2", "1/2"), ("8", "7", "1/8"),
        ("60", "41", "60/60"), ("769", "376", "769/769")]),
    "K4": (4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], [
        ("1", "1", "1/1"), ("2", "2", "2/2"), ("8", "8", "5/8"),
        ("63", "63", "63/63"), ("958", "958", "958/958")]),
    "C5": (5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)], [
        ("1", "1", "1/1"), ("2", "2", "1/2"), ("8", "8", "1/8"),
        ("64", "58", "64/64"), ("1012", "632", "1012/1012")]),
}


@pytest.mark.parametrize("name", sorted(CENSUS_ROWS))
def test_census_certify_rows_pinned(tmp_path, capsys, name):
    n, edges, want = CENSUS_ROWS[name]
    spec = write_spec(tmp_path, graph_from_edges(n, edges))
    rc, out, _ = run(capsys, "census", "--forbidden", spec, "--certify",
                     "--n-max", "5")
    assert rc == 0
    rows = parse(out)["results"]["rows"]
    assert [r["n"] for r in rows] == [1, 2, 3, 4, 5]
    assert [(r["count"], r["hrv_lower"], r["certified_fraction"])
            for r in rows] == want


def relabeled(n: int, edges, seed: int):
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    return graph_from_edges(n, [(perm[u], perm[v]) for u, v in edges])


CENSUS_ARGS = (2, Fraction(1, 4), Fraction(1, 2))  # k, alpha, budget_eps


def census_spec(name: str) -> tuple[PropertySpec, int]:
    n, edges, _ = CENSUS_ROWS[name]
    spec = PropertySpec.from_graphs([relabeled(n, edges, seed=n)])
    return spec, colouring_number(spec).value


@pytest.mark.parametrize("name, orders", [
    *((name, range(1, 6)) for name in sorted(CENSUS_ROWS)),
    ("K3", [6]), ("P4", [6])])
def test_class_census_equals_the_labeled_loop(name, orders):
    spec, r = census_spec(name)
    for m in orders:
        good, total, _ = certify_members(enumerate_property(spec, m), r,
                                         *CENSUS_ARGS)
        assert (good, total) == labeled_certified_fraction(
            enumerate_property(spec, m), r, *CENSUS_ARGS)


def sampled_runs(graphs, keep, rng):
    """The runs of consecutive graphs sharing a prefix, each kept whole
    with probability ``keep``."""
    prefix = kept = None
    for G in graphs:
        low = (1 << G.n - 1) - 1 if G.n else 0
        rows = tuple(row & low for row in G.adj[:-1])
        if rows != prefix:
            prefix, kept = rows, rng.random() < keep
        if kept:
            yield G


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(CENSUS_ROWS)),
       st.sampled_from(["ascending", "reversed", "shuffled", "mixed"]),
       st.data())
def test_class_census_equals_the_isomorphism_oracle(name, order, data):
    spec, r = census_spec(name)
    rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
    sizes = data.draw(st.lists(st.integers(0, 6), min_size=2, max_size=3,
                                unique=True) if order == "mixed"
                       else st.lists(st.integers(0, 6), min_size=1, max_size=1))
    # the oracle's networkx matching costs about 0.2 ms a graph, so at n = 6
    # a stream keeps 1 prefix run in 32, whole
    streams = [list(sampled_runs(enumerate_property(spec, m),
                                 1 if m < 6 else 1 / 32, rng)) for m in sizes]
    if order == "mixed":  # each size's stream ascending, interleaved at random
        picks = [i for i, stream in enumerate(streams) for _ in stream]
        rng.shuffle(picks)
        its = [iter(stream) for stream in streams]
        members = [next(its[i]) for i in picks]
    else:
        members = streams[0]
        if order == "reversed":
            members.reverse()
        elif order == "shuffled":
            rng.shuffle(members)
    assert (certify_members(members, r, *CENSUS_ARGS)
            == class_certified_fraction(members, r, *CENSUS_ARGS))


def test_certify_members_edge_streams():
    spec, r = census_spec("K3")
    empty, one = Graph(0, ()), Graph(1, (0,))
    assert certify_members([], r, *CENSUS_ARGS) == (0, 0, 0)
    for members in ([empty], [one], [one, empty, one, empty],
                    [empty, *enumerate_property(spec, 2), one, empty]):
        got = certify_members(members, r, *CENSUS_ARGS)
        assert got == class_certified_fraction(members, r, *CENSUS_ARGS)
        assert got[2] == len({(G.n, G.edge_count()) for G in members})


def test_certify_members_looks_up_once_per_prefix_run(monkeypatch):
    # ascending K3-free n = 6: 5,789 members in 38 classes
    calls = []
    index = IsomorphismClasses.index
    monkeypatch.setattr(IsomorphismClasses, "index",
                        lambda self, G, *image: calls.append(G.n)
                        or index(self, G, *image))
    spec, r = census_spec("K3")
    got = certify_members(enumerate_property(spec, 6), r, *CENSUS_ARGS)
    assert got == (3497, 5789, 38)
    assert len(calls) < got[1] / 8
    monkeypatch.undo()
    assert got == class_certified_fraction(enumerate_property(spec, 6), r,
                                           *CENSUS_ARGS)


@pytest.mark.parametrize("name", sorted(CENSUS_ROWS))
def test_census_classes_match_the_atlas(tmp_path, capsys, name):
    # the networkx atlas holds one graph of each class on up to 7 vertices
    n, edges, _ = CENSUS_ROWS[name]
    F = nx.Graph(edges)
    atlas = [X for X in nx.graph_atlas_g()[1:] if X.number_of_nodes() <= 6
             and not nx.isomorphism.GraphMatcher(X, F).subgraph_is_isomorphic()]
    want = [sum(X.number_of_nodes() == m for X in atlas) for m in range(1, 7)]
    if name == "K3":
        assert want == [1, 2, 3, 7, 14, 38]
    spec = write_spec(tmp_path, relabeled(n, edges, seed=n))
    for _ in range(2):
        rc, out, _ = run(capsys, "census", "--forbidden", spec, "--certify",
                         "--n-max", "6")
        assert rc == 0
        assert [r["classes"] for r in parse(out)["results"]["rows"]] == want
