#!/usr/bin/env python3
"""Regenerate the pinned references under ``reference/`` from the program
in ``src/``:

    python3 perfbench/pin.py

The references hold the program's results at the commit that pinned them.
``test_reference.py`` re-derives the census counts and the count-free
counts with independent oracles and re-checks every pinned certificate, so
run it after pinning.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from hptools import cli  # noqa: E402
from workloads import (CENSUS_FIELDS, CENSUS_PROPERTIES,  # noqa: E402
                       COUNT_FREE_MODES, COUNT_FREE_SIZES, REFERENCE, Client,
                       Clock, census_argv, certificate_fields, certify_pool,
                       count_free_argv, decompose_argv, graph6, pack_argv,
                       packing_fields, relabeled_rows)


def results(client: Client, argv: list[str]) -> dict:
    text = client.call(argv, lambda res: None)
    if text is None:
        raise SystemExit(f"pinning failed: {client.failures[-1]}")
    return json.loads(text)["results"]


def main() -> None:
    client = Client(cli, Clock())
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        census = {}
        for prop, (n, edges) in CENSUS_PROPERTIES.items():
            path = work / f"{prop}.g6"
            path.write_text(graph6(n, relabeled_rows(n, edges, range(n))) + "\n")
            res = results(client, census_argv(str(path)))
            census[prop] = [{f: row[f] for f in CENSUS_FIELDS}
                            for row in res["rows"]]
        count_free = {
            f"{m}x{n}": {mode: results(client, count_free_argv(m, n, mode))
                         ["count"] for mode in COUNT_FREE_MODES}
            for m, n in COUNT_FREE_SIZES}
        certify = []
        for entry in certify_pool():
            graph = work / "g.g6"
            graph.write_text(entry["graph6"] + "\n")
            expected = {}
            for k in ("1", "2"):
                cert = results(client,
                               decompose_argv(str(graph), str(entry["r"]), k))
                labels = cert["provenance"]["adjusted_labels"]
                pack = results(client, pack_argv(str(graph), labels, k))
                expected[k] = {"certificate": certificate_fields(cert),
                               "packing": packing_fields(pack)}
            certify.append({**entry, "expected": expected})
    for name, data in (("census", census), ("count_free", count_free)):
        with open(REFERENCE / f"{name}.json", "w") as fh:
            json.dump(data, fh, indent=2, sort_keys=True)
            fh.write("\n")
    with open(REFERENCE / "certify.json", "w") as fh:  # one graph per line
        fh.write("[\n" + ",\n".join(json.dumps(e, sort_keys=True)
                                     for e in certify) + "\n]\n")


if __name__ == "__main__":
    main()
