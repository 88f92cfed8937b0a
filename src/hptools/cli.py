"""Batch command-line surface: every analysis as a reproducible report.

One invocation prints one report, a line of strict JSON (no NaN or
infinities) that echoes every parameter and the seed.  Exit status: 0
success, 1 domain error, 2 usage error.  Reports are byte-reproducible
apart from the timing field.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from decimal import Decimal
from fractions import Fraction

from . import __version__
from .errors import DomainError
from .freeness import (MAX_UK_HOST, MAX_UK_LEVEL, BipGraph, bipgraph_decode,
                       count_nonshattering_attachments, count_uk_free_bipartite,
                       distinguishing_set, extract_clone_classes,
                       max_separated_subset, separated_subset_ceiling)
from .graphs import (MAX_ENUM_VERTICES, MAX_EXACT_CLIQUE, MAX_VERTICES, Graph, bits,
                     edgelist_decode, graph6_decode, graph6_encode, mask_of)
from .hereditary import (MAX_PATTERN_LENGTH, abt_bounds, class_levels,
                         colouring_number, count_hrv, load_property, speed,
                         valid_hrv_patterns)
from .structure import (DecompositionCertificate, PackingPiece, PackingReport,
                        _budget, certify_members, decompose,
                        decomposition_failures, default_parts,
                        extract_universal_packing, provenance_failures,
                        verify_decomposition, verify_packing_maximality,
                        verify_packing_report)
from .universal import (construct_generalized_universal, construct_universal,
                        construct_universal_star, shatters)


def _vlist(mask: int) -> list[int]:
    return list(bits(mask))


def _parse_labels(text: str, option: str) -> tuple[int, ...]:
    """Non-negative integers separated by commas or spaces."""
    labels = []
    for tok in text.replace(",", " ").split():
        if not (tok.isascii() and tok.isdigit()):
            raise DomainError(f"{option} lists {tok!r}, not a non-negative integer")
        labels.append(int(tok))
    return tuple(labels)


def _parse_parts(text: str) -> tuple[int, ...]:
    """The --parts labels, each below the vertex cap: a graph has at most
    that many parts, and every label allocates a part."""
    parts = _parse_labels(text, "--parts")
    if any(j >= MAX_VERTICES for j in parts):
        raise DomainError(f"--parts lists a label outside 0..{MAX_VERTICES - 1}")
    return parts


def _parse_vertices(text: str, option: str, n: int) -> int:
    """A vertex set of a graph on n vertices."""
    vertices = _parse_labels(text, option)
    if any(v >= n for v in vertices):
        raise DomainError(f"{option} lists a vertex outside 0..{n - 1}")
    return mask_of(vertices)


def read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path} is not UTF-8 text: {exc.reason} at byte "
                          f"{exc.start}") from None


def load_graph(path: str) -> Graph:
    """A graph6 or edge-list file.  An edge list starts with its vertex
    count, and no graph6 byte (63..126) is a digit."""
    text = read_text(path).strip()
    return edgelist_decode(text) if text[:1].isdigit() else graph6_decode(text)


def load_bipgraph(path: str) -> BipGraph:
    return bipgraph_decode(read_text(path))


# ---------------------------------------------------------------------------
# certificate schemas (packing report 1, decomposition certificate 2)


def _pieces_to_list(pieces) -> list[dict]:
    return [{
        "level": p.level,
        "layers": [_vlist(m) for m in p.layers],
        "placement": list(p.placement),
    } for p in pieces]


def packing_to_dict(report: PackingReport, G: Graph, parts) -> dict:
    return {
        "type": "packing-report",
        "schema_version": 1,
        "graph6": graph6_encode(G).decode("ascii"),
        "parts": list(parts),
        "k": report.k,
        "r": report.r,
        "pieces": _pieces_to_list(report.pieces),
        "residual": [_vlist(m) for m in report.residual],
    }


# Reading a certificate checks every field it uses: a missing field, a
# wrong type, a vertex outside the graph or a part index outside 0..r-1 is a
# DomainError naming the field, so the verifiers only see well-formed input.

_KINDS = {str: "a string", int: "an integer", bool: "true or false",
          list: "a list", dict: "an object", (int, float): "a number",
          (str, int, float): "a rational string or a number"}


def _typed(value, kind, name: str):
    """``value``, checked to be a ``kind``; a bool is never a number."""
    if not isinstance(value, kind) or isinstance(value, bool) and kind is not bool:
        raise DomainError(f"certificate field {name!r} must be {_KINDS[kind]}")
    return value


def _need(data: dict, key: str, kind, where: str = ""):
    if key not in data:
        raise DomainError(f"certificate lacks field {where + key!r}")
    return _typed(data[key], kind, where + key)


def _ints(values, lo: int, hi: int, name: str) -> list[int]:
    """``values``, checked to be a list of integers in lo..hi-1."""
    _typed(values, list, name)
    if not all(type(x) is int and lo <= x < hi for x in values):
        raise DomainError(f"certificate field {name!r} must list integers "
                          f"in {lo}..{hi - 1}")
    return values


def _number(data: dict, key: str, where: str = ""):
    """A finite number: JSON readers accept NaN and the infinities, which
    RFC 8259 does not."""
    value = _need(data, key, (int, float), where)
    if isinstance(value, float) and not math.isfinite(value):
        raise DomainError(f"certificate field {where + key!r} must be a "
                          "finite number")
    return value


def _alpha(data: dict, where: str) -> Fraction:
    """Alpha as --alpha reads it: "3/10" in schema 2, a number in 1."""
    value = _need(data, "alpha", (str, int, float), where)
    try:
        return _rational(str(value), unit=True)
    except argparse.ArgumentTypeError:
        raise DomainError(f"certificate field {where + 'alpha'!r} must be a "
                          "rational in (0, 1)") from None


def _int_list(data: dict, key: str, lo: int, hi: int, where: str = "") -> list[int]:
    return _ints(_need(data, key, list, where), lo, hi, where + key)


def _labels(data: dict, key: str, n: int, r: int,
            where: str = "") -> tuple[int, ...]:
    """A part label in 0..r-1 for each of the n vertices."""
    labels = tuple(_int_list(data, key, 0, r, where))
    if len(labels) != n:
        raise DomainError(f"certificate field {where + key!r} labels "
                          f"{len(labels)} vertices but its graph has {n}")
    return labels


def _vertex_sets(data: dict, key: str, n: int, where: str = "") -> tuple[int, ...]:
    """A list of vertex lists over 0..n-1, as masks."""
    return tuple(mask_of(_ints(s, 0, n, f"{where}{key}[{i}]"))
                 for i, s in enumerate(_need(data, key, list, where)))


def _level(k: int, name: str) -> int:
    """The universal level k of a packing, decomposition, separated ceiling
    or U(k)-free count, bounded where a command starts by ``MAX_UK_LEVEL``,
    the level at which the exhaustive U(k) search stops: a decomposition
    ends in that search, so a larger k would fail only after the pipeline."""
    if not 1 <= k <= MAX_UK_LEVEL:
        raise DomainError(f"{name} must lie in 1..{MAX_UK_LEVEL}")
    return k


def _header(data: dict, *versions: int) -> tuple[Graph, int, int]:
    """The host, r and k that a packing report and a decomposition
    certificate both carry, refused unless the schema is one of
    ``versions``, the host is within the packing cap, r within the part cap
    and k a valid level."""
    if _need(data, "schema_version", int) not in versions:
        raise DomainError("certificate field 'schema_version' must be "
                          + " or ".join(map(str, versions)))
    G = graph6_decode(_need(data, "graph6", str))
    if G.n > MAX_UK_HOST:
        raise DomainError(f"packing capped at {MAX_UK_HOST} vertices")
    r = _need(data, "r", int)
    if r > MAX_VERTICES:
        raise DomainError(f"certificate field 'r' exceeds the "
                          f"{MAX_VERTICES}-part cap")
    return G, r, _level(_need(data, "k", int), "certificate field 'k'")


def _pieces(data: dict, n: int, r: int, where: str = "") -> tuple[PackingPiece, ...]:
    pieces = []
    for i, p in enumerate(_need(data, "pieces", list, where)):
        at = f"{where}pieces[{i}]"
        _typed(p, dict, at)
        pieces.append(PackingPiece(
            _vertex_sets(p, "layers", n, at + "."),
            _need(p, "level", int, at + "."),
            tuple(_int_list(p, "placement", 0, r, at + "."))))
    return tuple(pieces)


def packing_from_dict(data: dict) -> tuple[Graph, tuple[int, ...], PackingReport]:
    G, r, k = _header(data, 1)
    parts = _labels(data, "parts", G.n, r)
    if (max(parts) + 1 if parts else 0) != r:
        raise DomainError(f"certificate parts do not use all r = {r} labels")
    report = PackingReport(_pieces(data, G.n, r),
                           _vertex_sets(data, "residual", G.n), k, r)
    return G, parts, report


def certificate_to_dict(cert: DecompositionCertificate, G: Graph) -> dict:
    return {
        "type": "decomposition-certificate",
        "schema_version": 2,
        "graph6": graph6_encode(G).decode("ascii"),
        "n": cert.n,
        "r": cert.r,
        "k": cert.k,
        "A": _vlist(cert.exceptional),
        "parts": [_vlist(m) for m in cert.parts],
        "provenance": {
            "bad_set": _vlist(cert.bad_set),
            "alpha": str(cert.alpha),
            "eps_out": cert.eps_out,
            "hint_parts": list(cert.hint),
            "adjusted_labels": list(cert.adjusted_labels),
            "adjustment_ok": cert.adjustment_ok,
            "packing": {"pieces": _pieces_to_list(cert.pieces)},
        },
        "budget": cert.budget,
        "budget_ok": cert.budget_ok,
    }


def certificate_from_dict(data: dict) -> tuple[Graph, DecompositionCertificate]:
    G, r, k = _header(data, 1, 2)
    n = _need(data, "n", int)
    if n != G.n:
        raise DomainError(f"certificate field 'n' is {n} but its graph has "
                          f"{G.n} vertices")
    parts = _vertex_sets(data, "parts", n)
    if len(parts) != r:
        raise DomainError(f"certificate lists {len(parts)} parts but r = {r}")
    prov = _need(data, "provenance", dict)
    at = "provenance."
    pieces = _pieces(_need(prov, "packing", dict, at), n, r, at + "packing.")
    cert = DecompositionCertificate(
        n=n, r=r, k=k,
        exceptional=mask_of(_int_list(data, "A", 0, n)),
        parts=parts,
        bad_set=mask_of(_int_list(prov, "bad_set", 0, n, at)),
        adjusted_labels=_labels(prov, "adjusted_labels", n, r, at),
        # null in certificates written before the hint was recorded, each
        # made from decompose's default hint
        hint=(default_parts(G, r) if prov.get("hint_parts", ()) is None
              else _labels(prov, "hint_parts", n, r, at)),
        adjustment_ok=_need(prov, "adjustment_ok", bool, at),
        pieces=pieces, alpha=_alpha(prov, at),
        eps_out=_number(prov, "eps_out", at),
        budget=_number(data, "budget"),
        budget_ok=_need(data, "budget_ok", bool))
    return G, cert


def _log2_str(x: float) -> str:
    return f"{x:.6f}"


# ---------------------------------------------------------------------------
# subcommands


def cmd_construct(args) -> dict:
    if args.r is None and args.v is None:
        uni = construct_universal(args.k)
        w = shatters(uni.graph, uni.A, uni.B)
        results = {
            "graph6": graph6_encode(uni.graph).decode("ascii"),
            "A": _vlist(uni.A), "B": _vlist(uni.B),
            "edges": uni.graph.edge_count(),
            "shatters": w is not None,
        }
    else:
        if args.v is not None:
            pattern = args.v.replace(",", "")
            if not pattern or not set(pattern) <= set("01"):
                raise DomainError(f"--v is {args.v!r}, not a pattern of 0s and 1s")
            v = tuple(map(int, pattern))
            # a pattern alone fixes the number of layers
            lay = construct_universal_star(len(v) if args.r is None else args.r,
                                           args.k, v)
        else:
            lay = construct_generalized_universal(args.r, args.k)
        results = {
            "graph6": graph6_encode(lay.graph).decode("ascii"),
            "layers": [_vlist(m) for m in lay.layers],
            "layer_sizes": [m.bit_count() for m in lay.layers],
            "edges": lay.graph.edge_count(),
        }
    return results


def cmd_shatter(args) -> dict:
    G = load_graph(args.graph)
    A = _parse_vertices(args.A, "--A", G.n)
    B = _parse_vertices(args.B, "--B", G.n)
    w = shatters(G, A, B)
    results = {"shatters": w is not None}
    if w is not None:
        results["realizers"] = {str(sorted(_vlist(tr))): v
                                for tr, v in sorted(w.items())}
    return results


def cmd_chi_c(args) -> dict:
    spec = load_property(args.forbidden)
    chi = colouring_number(spec, args.r_max)
    return {
        "colouring_number": chi.value,
        "capped": chi.capped,
        "degenerate": chi.degenerate,
        "witness_v": list(chi.witness_v) if chi.witness_v else None,
    }


def cmd_speed(args) -> dict:
    spec = load_property(args.forbidden)
    row = speed(spec, args.n)
    return {"n": row.n, "count": str(row.count),
            "entropy": _log2_str(row.entropy)}


def cmd_census(args) -> dict:
    k = _level(args.k, "--k")
    if not 0 < args.eps <= 1:
        raise DomainError("eps must lie in (0, 1]")
    if args.n_max < 0:
        raise DomainError(f"--n-max must lie in 0..{MAX_ENUM_VERTICES}")
    if args.n_max > MAX_ENUM_VERTICES:
        raise DomainError(f"enumeration capped at n <= {MAX_ENUM_VERTICES}")
    if args.certify and args.n_max >= 1:
        # n^(1-eps) is finite for every n in 1..n_max iff it is at n_max:
        # refused here, before the census reaches an order that overflows
        _budget(args.n_max, args.budget_eps)
    spec = load_property(args.forbidden)
    chi = colouring_number(spec)
    if chi.degenerate:
        raise DomainError("degenerate property: the one-vertex graph is forbidden")
    r = chi.value
    patterns = valid_hrv_patterns(spec)
    levels = class_levels(spec)
    next(levels)  # P_0
    rows = []
    for n in range(1, args.n_max + 1):
        row = speed(spec, n)
        lower = max((count_hrv(n, v) for v in patterns), default=0)
        lo2, hi2 = abt_bounds(n, r, args.eps)
        entry = {
            "n": n,
            "count": str(row.count),
            "entropy": _log2_str(row.entropy),
            "hrv_lower": str(lower),
            "abt_log2_lower": _log2_str(lo2),
            "abt_log2_upper": _log2_str(hi2),
        }
        if args.certify:
            good, total, classes = certify_members(
                next(levels), r, k, args.alpha, args.budget_eps)
            entry["certified_fraction"] = f"{good}/{total}"
            entry["classes"] = classes
        rows.append(entry)
    return {"rows": rows, "colouring_number": r}


def cmd_count_free(args) -> dict:
    count = count_uk_free_bipartite(args.m, args.n, _level(args.k, "--k"),
                                    args.mode)
    return {"count": str(count)}


def cmd_count_attach(args) -> dict:
    exact, printed, corrected = count_nonshattering_attachments(
        _level(args.a, "--a"), args.n)
    return {"exact": str(exact), "printed_bound": str(printed),
            "corrected_bound": str(corrected)}


def cmd_separated(args) -> dict:
    bg = load_bipgraph(args.bipgraph)
    # the side's vertex count, and the length of each vertex's vector
    count, length = (bg.m, bg.n) if args.side == "A" else (bg.n, bg.m)
    results = {}
    if args.k is not None:
        results["ceiling"] = _log2_str(separated_subset_ceiling(
            length, args.x, _level(args.k, "--k"), count))
    best = max_separated_subset(bg, args.side, args.x)
    results.update(vertices=_vlist(best), size=best.bit_count(),
                   exact=count <= MAX_EXACT_CLIQUE)
    return results


def cmd_sparsen(args) -> dict:
    needed = ("bipgraph",) if args.t is None else ("graph", "parts", "core")
    for name in needed:
        if getattr(args, name) is None:
            raise DomainError(f"sparsen needs --{name} in this mode")
    if args.t is None:
        bg = load_bipgraph(args.bipgraph)
        u_sub = (_parse_vertices(args.usub, "--usub", bg.m) if args.usub
                 else (1 << bg.m) - 1)
        ds = distinguishing_set(bg, u_sub, args.alpha, args.seed)
        return {"X": _vlist(ds.X), "size": ds.X.bit_count(),
                "attempts": ds.attempts}
    G = load_graph(args.graph)
    parts = _parse_parts(args.parts)
    B = _parse_vertices(args.core, "--core", G.n)
    out = extract_clone_classes(G, parts, B, args.alpha, args.t, args.seed,
                                args.direction)
    return {
        "b_prime": _vlist(out.b_prime),
        "classes": [[_vlist(c) for c in part] for part in out.classes],
        "delta": out.delta,
    }


def cmd_pack(args) -> dict:
    G = load_graph(args.graph)
    parts = _parse_parts(args.parts)
    report = extract_universal_packing(G, parts, _level(args.k, "--k"))
    problems = verify_packing_report(G, parts, report)
    data = packing_to_dict(report, G, parts)
    data["structure_ok"] = not problems
    data["maximal"] = verify_packing_maximality(G, parts, report)
    return data


def cmd_decompose(args) -> dict:
    G = load_graph(args.graph)
    if args.r > MAX_VERTICES:
        raise DomainError(f"--r exceeds the {MAX_VERTICES}-part cap")
    hint = _parse_parts(args.parts) if args.parts is not None else None
    cert = decompose(G, args.r, _level(args.k, "--k"), args.alpha,
                     parts_hint=hint, eps_out=args.eps_out)
    data = certificate_to_dict(cert, G)
    data["verified"] = verify_decomposition(G, cert)
    return data


def load_certificate(path: str) -> dict:
    """The certificate object of a JSON file, raw or wrapped in a report."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        payload = json.loads(raw)
    except (ValueError, RecursionError) as exc:
        raise DomainError(f"certificate is not JSON: {exc}") from None
    data = payload.get("results", payload) if isinstance(payload, dict) else None
    if not isinstance(data, dict):
        raise DomainError("certificate is not a JSON object")
    return data


def _cross_check_graph(args, G: Graph) -> Graph:
    """The --graph file when given, which must have the certificate's order."""
    if not args.graph:
        return G
    H = load_graph(args.graph)
    if H.n != G.n:
        raise DomainError(f"--graph has {H.n} vertices but the certificate's "
                          f"graph has {G.n}")
    return H


def cmd_verify(args) -> dict:
    data = load_certificate(args.certificate)
    kind = data.get("type")
    if kind == "decomposition-certificate":
        G, cert = certificate_from_dict(data)
        G = _cross_check_graph(args, G)
        problems = (decomposition_failures(G, cert, args.budget_eps)
                    + provenance_failures(G, cert))
    elif kind == "packing-report":
        if args.budget_eps is not None:
            raise DomainError("--budget-eps applies to decomposition "
                              "certificates only")
        G, parts, report = packing_from_dict(data)
        G = _cross_check_graph(args, G)
        problems = verify_packing_report(G, parts, report)
        if not problems and not verify_packing_maximality(G, parts, report):
            problems = ["packing is not maximal: a further piece fits or "
                        "a part shatters a piece"]
    else:
        raise DomainError(f"unknown certificate type {kind!r}")
    return {"type": kind, "valid": not problems, "problems": problems}


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are one line, with exit 2."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _rational(text: str, unit: bool = False) -> Fraction:
    """An exact option value such as 0.1 or 1/10 that is a finite float;
    with ``unit``, one whose float, which reports print, lies strictly
    between 0 and 1 (rounding is monotone, so the exact value does too).  A
    decimal exponent beyond any float's is refused before Fraction would
    expand it into an integer."""
    try:
        if "/" not in text and not -400 < Decimal(text).adjusted() < 400:
            raise ValueError(text)
        value = Fraction(text)
        number = float(value)
    except (ArithmeticError, ValueError):
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a finite number") from None
    if unit and not 0 < number < 1:
        raise argparse.ArgumentTypeError(f"{text!r} does not lie in (0, 1)")
    return value


# command -> (handler, help, options as (flag, add_argument keywords))
COMMANDS = {
    "construct": (cmd_construct, "build a universal graph", (
        ("--k", dict(type=int, required=True)),
        ("--r", dict(type=int)),
        ("--v", dict(help="layer pattern bits for the starred variant")))),
    "shatter": (cmd_shatter, "test whether A shatters B", (
        ("--graph", dict(required=True)),
        ("--A", dict(required=True, help="comma-separated vertices")),
        ("--B", dict(required=True)))),
    "chi-c": (cmd_chi_c, "colouring number of a property", (
        ("--forbidden", dict(required=True)),
        ("--r-max", dict(type=int, default=MAX_PATTERN_LENGTH)))),
    "speed": (cmd_speed, "exact |P_n|", (
        ("--forbidden", dict(required=True)),
        ("--n", dict(type=int, required=True)))),
    "census": (cmd_census, "per-n speed/entropy/bound table", (
        ("--forbidden", dict(required=True)),
        ("--n-max", dict(type=int, required=True)),
        ("--eps", dict(type=_rational, default=0.5)),
        ("--alpha", dict(type=functools.partial(_rational, unit=True),
                         default=0.25)),
        ("--k", dict(type=int, default=2)),
        ("--budget-eps", dict(type=_rational, default=0.5)),
        ("--certify", dict(action=argparse.BooleanOptionalAction,
                           default=False,
                           help="also decompose every member and report the "
                                "fraction meeting the |A| budget")))),
    "count-free": (cmd_count_free, "exact U(k)-free bipartite count", (
        ("--m", dict(type=int, required=True)),
        ("--n", dict(type=int, required=True)),
        ("--k", dict(type=int, required=True)),
        ("--mode", dict(choices=("whole", "cross"), default="whole")))),
    "count-attach": (cmd_count_attach, "exact non-shattering attachment count", (
        ("--a", dict(type=int, required=True)),
        ("--n", dict(type=int, required=True)))),
    "separated": (cmd_separated, "max pairwise-separated subset", (
        ("--bipgraph", dict(required=True)),
        ("--side", dict(choices=("A", "B"), default="A")),
        ("--x", dict(type=int, required=True)),
        ("--k", dict(type=int, help="report the U(k)-free ceiling too")))),
    "sparsen": (cmd_sparsen,
                "distinguishing set, or clone classes when --t is given", (
        ("--bipgraph", dict()),
        ("--usub", dict(help="A-side vertices to distinguish")),
        ("--graph", dict()),
        ("--parts", dict(help="part label per vertex, comma-separated")),
        ("--core", dict(help="core vertex set B")),
        ("--alpha", dict(type=_rational, required=True)),
        ("--t", dict(type=int)),
        ("--direction", dict(choices=("to-core", "from-core"),
                             default="to-core")),
        ("--seed", dict(type=int, default=0)))),
    "pack": (cmd_pack, "extract a universal packing", (
        ("--graph", dict(required=True)),
        ("--parts", dict(required=True)),
        ("--k", dict(type=int, required=True)))),
    "decompose": (cmd_decompose, "decomposition certificate", (
        ("--graph", dict(required=True)),
        ("--r", dict(type=int, required=True)),
        ("--k", dict(type=int, required=True)),
        ("--alpha", dict(type=functools.partial(_rational, unit=True),
                         required=True)),
        ("--parts", dict()),
        ("--eps-out", dict(type=_rational, default=0.5)))),
    "verify": (cmd_verify, "re-verify an emitted certificate", (
        ("--certificate", dict(required=True)),
        ("--graph", dict(help="optional cross-check graph file")),
        ("--budget-eps", dict(type=_rational)))),
}


@functools.cache
def build_parser(command=None) -> argparse.ArgumentParser:
    """The parser, built once per argument: parsing leaves it unchanged for
    ``main``.  With a command of ``COMMANDS`` only that command's subparser
    is added, the same subparser that the full parser adds for it; without
    one all of them are, for ``--help``, ``--version`` and the errors of a
    missing or unknown command."""
    top = _Parser(
        prog="hptools",
        description="Exact desk-scale toolkit for universal graphs, "
                    "hereditary speeds, and structure certificates.")
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)
    for name in [command] if command else COMMANDS:
        fn, summary, options = COMMANDS[name]
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=fn)
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
    return top


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in COMMANDS else None
    parser = build_parser(command)
    if command:
        # the full parser hands the rest to its last action's subparser and
        # refuses leftovers itself; "--=x" is ambiguous among the command's
        # own options here, not among the full parser's --help and --version
        args, rest = parser._actions[-1].choices[command].parse_known_args(argv[1:])
        if rest:
            parser.error(f"unrecognized arguments: {' '.join(rest)}")
        args.command = command
    else:
        args = parser.parse_args(argv)
    t0 = time.perf_counter()
    try:
        results = args.func(args)
        params = {k: float(v) if isinstance(v, Fraction) else v
                  for k, v in sorted(vars(args).items())
                  if k not in ("command", "func") and v is not None}
        print(json.dumps({
            "tool": "hptools", "version": __version__, "command": args.command,
            "params": params, "seed": getattr(args, "seed", None),
            "results": results,
            "timing_ms": round((time.perf_counter() - t0) * 1000, 3),
        }, sort_keys=True, default=str, allow_nan=False))
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
