"""The three benchmark workloads.

Each workload makes its input files from a seed at set-up, then runs one
*pass* of ``hptools`` CLI calls through a :class:`Client`.  The client runs
every call in-process through ``hptools.cli.main(argv)`` and checks its
report against the pinned references under ``reference/``.  A call fails if
it exits nonzero, raises, or reports results that differ from the
reference; failures are logged and counted, never retried or skipped.
"""

from __future__ import annotations

import json
import random
import sys
import threading
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path
from time import perf_counter

REFERENCE = Path(__file__).resolve().parent / "reference"


def load_reference(name: str):
    with open(REFERENCE / f"{name}.json") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# input graphs, written by the benchmark's own encoder so that the inputs do
# not depend on the code under test


def graph6(n: int, rows) -> str:
    """graph6 text of the graph on [n] with neighbourhood bit rows."""
    stream = [rows[v] >> u & 1 for v in range(n) for u in range(v)]
    stream += [0] * (-len(stream) % 6)
    body = bytes(63 + int("".join(map(str, stream[i:i + 6])), 2)
                 for i in range(0, len(stream), 6))
    return chr(63 + n) + body.decode("ascii")


def relabeled_rows(n: int, edges, perm) -> list[int]:
    rows = [0] * n
    for u, v in edges:
        rows[perm[u]] |= 1 << perm[v]
        rows[perm[v]] |= 1 << perm[u]
    return rows


FLIP = 0.05  # the pinned certify pool depends on this value


def planted_rows(n: int, r: int, rng: random.Random) -> list[int]:
    """A near-(r,v)-partition graph: a random balanced r-partition, part j a
    clique when v[j] = 1 and independent otherwise, each pair inside a part
    flipped with probability ``FLIP``, cross pairs uniform."""
    pattern = [rng.randrange(2) for _ in range(r)]
    labels = [i % r for i in range(n)]
    rng.shuffle(labels)
    rows = [0] * n
    for v in range(n):
        for u in range(v):
            if labels[u] == labels[v]:
                edge = (pattern[labels[v]] == 1) != (rng.random() < FLIP)
            else:
                edge = rng.random() < 0.5
            if edge:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return rows


def certify_pool() -> list[dict]:
    """The fixed pool behind ``certify``: one planted graph for every
    n in 8..40 and r in {2, 3}, each from its own named stream."""
    pool = []
    for n in range(8, 41):
        for r in (2, 3):
            rng = random.Random(f"perfbench-certify-{n}-{r}")
            pool.append({"n": n, "r": r,
                         "graph6": graph6(n, planted_rows(n, r, rng))})
    return pool


# ---------------------------------------------------------------------------
# timing at a reference speed

# Seconds that reference_loop() takes on one 2.0 GHz Xeon vCPU under
# CPython 3.11 when the host is quiet.  Scaled times read as seconds on that
# machine at that speed.
REFERENCE_S = 0.003


def reference_loop() -> int:
    """Fixed pure-Python work (integer arithmetic and dict stores, like the
    program's own) whose time stands for the machine's current speed."""
    acc, table = 0, {}
    for i in range(20000):
        acc += (i * 2654435761) & 0xFFFF
        table[i & 1023] = acc
    return acc


class Clock:
    """Times work at the reference speed.

    The benchmark's machine is shared: its speed swings by up to 2x within
    seconds and drifts by a third over minutes, for the program and for any
    other code alike (see README.md, Noise).  So every timing is divided by
    the mean time of :func:`reference_loop` run just before and just after
    it, and multiplied by :data:`REFERENCE_S`.  Consecutive timings share
    the reference run between them."""

    def __init__(self):
        self.reference_s: list[float] = []
        self._before = self._reference()
        self._t0 = 0.0

    def _reference(self) -> float:
        t0 = perf_counter()
        reference_loop()
        self.reference_s.append(perf_counter() - t0)
        return self.reference_s[-1]

    def start(self) -> None:
        self._t0 = perf_counter()

    def stop(self) -> tuple[float, float]:
        """Seconds since :meth:`start`, as measured and at the reference
        speed."""
        seconds = perf_counter() - self._t0
        after = self._reference()
        scaled = seconds * 2 * REFERENCE_S / (self._before + after)
        self._before = after
        return seconds, scaled


# ---------------------------------------------------------------------------
# the client


class Client:
    """Closed-loop client: one call at a time, each issued after the previous
    one returns.  Records attempts, failures and, in call order, each call's
    command and the seconds ``main`` took, as measured and at the reference
    speed."""

    def __init__(self, cli, clock: Clock):
        self.cli = cli
        self.clock = clock
        self.attempted = 0
        self.failures: list[dict] = []
        self.timed: list[tuple[str, float, float]] = []

    def call(self, argv: list[str], check):
        """Run one CLI call; return its report text when every check passes,
        otherwise record the failure and return None.  ``check`` maps the
        report's ``results`` to None (pass) or a reason."""
        self.attempted += 1
        out, err = StringIO(), StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            self.clock.start()
            try:
                status = self.cli.main(argv)
            except (Exception, SystemExit) as exc:  # the call failed; record it
                status = f"raised {type(exc).__name__}"
                err.write(f"{type(exc).__name__}: {exc}\n")
            self.timed.append((argv[0], *self.clock.stop()))
        text = out.getvalue()
        if status != 0:
            return self.fail(argv, f"exit status {status}", err.getvalue())
        if threading.active_count() > 1:
            # a thread left running would slow the reference loop and so
            # make every later call read faster than it is
            return self.fail(argv, f"left {threading.active_count() - 1} "
                             "threads running", err.getvalue())
        try:
            results = json.loads(text)["results"]
        except (ValueError, KeyError, TypeError):
            return self.fail(argv, "no JSON report", err.getvalue())
        try:
            reason = check(results)
        except (KeyError, TypeError, AttributeError) as exc:
            reason = f"report lacks a field: {exc!r}"
        if reason is not None:
            return self.fail(argv, reason, err.getvalue())
        return text

    def fail(self, argv: list[str], reason: str, stderr: str = ""):
        lines = stderr.strip().splitlines()
        first = lines[0] if lines else ""
        self.failures.append({"argv": argv, "reason": reason, "stderr": first})
        print(f"FAILED hptools {' '.join(argv)}: {reason}"
              + (f" | stderr: {first}" if first else ""), file=sys.stderr)
        return None


def _mismatch(got, want, what: str):
    return None if got == want else f"{what} differs from the reference"


# ---------------------------------------------------------------------------
# census: the paper's finite check, end to end


# forbidden graph of each property: vertex count and edges
CENSUS_PROPERTIES = {
    "K3": (3, ((0, 1), (1, 2), (0, 2))),
    "C4": (4, ((0, 1), (1, 2), (2, 3), (3, 0))),
    "P4": (4, ((0, 1), (1, 2), (2, 3))),
    "claw": (4, ((0, 1), (0, 2), (0, 3))),
    "K4": (4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))),
    "C5": (5, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0))),
}
# At n = 6 one call takes 3-25 s, long enough for the machine's speed to
# change several times within it, unseen by the reference loop runs around it
# (see Clock and README.md, Noise); at n = 5 each takes 0.1-0.7 s.
CENSUS_N_MAX = 5
CENSUS_FIELDS = ("n", "count", "hrv_lower", "certified_fraction")


def census_argv(path: str) -> list[str]:
    return ["census", "--forbidden", path, "--certify",
            "--n-max", str(CENSUS_N_MAX)]


class Census:
    """``census --certify --n-max 5`` for each property of
    ``CENSUS_PROPERTIES``.  The seed relabels each forbidden graph and
    orders the calls; the pinned rows are label-invariant."""

    name = "census"
    # wrapped functions that must run; every other one must not.
    # find_uk_copy is not among them: decompose checks a part only once it
    # has 2^k + k = 6 vertices, which no part reaches at n <= 5.
    busy = frozenset({
        "cli.main", "graphs.enumerate_labeled", "graphs.max_clique",
        "graphs.induced_subgraph", "graphs.graph6_decode",
        "hereditary.load_property", "hereditary.colouring_number",
        "hereditary.valid_hrv_patterns", "hereditary.enumerate_property",
        "hereditary.count_hrv", "hereditary.speed",
        "regularity.min_intra_edges_parts", "structure.decompose",
        "structure.max_bad_set", "structure.alpha_adjust",
        "structure.extract_universal_packing",
        "structure.verify_decomposition",
    })

    def setup(self, work: Path, seed: int) -> None:
        rng = random.Random(seed)
        self.reference = load_reference("census")
        self.calls = []
        for prop, (n, edges) in CENSUS_PROPERTIES.items():
            perm = list(range(n))
            rng.shuffle(perm)
            path = work / f"{prop}.g6"
            path.write_text(graph6(n, relabeled_rows(n, edges, perm)) + "\n")
            self.calls.append((prop, census_argv(str(path))))
        rng.shuffle(self.calls)

    def run_pass(self, client: Client) -> None:
        for prop, argv in self.calls:
            want = self.reference[prop]
            client.call(argv, lambda res, want=want: _mismatch(
                [{f: row.get(f) for f in CENSUS_FIELDS} for row in res["rows"]],
                want, "census rows"))


# ---------------------------------------------------------------------------
# count-free: the exact-counting kernel alone


# (m, n): each call covers 2^15 or 2^16 patterns, with a count below that in
# both modes, and takes 0.05-0.2 s.  The calls are kept short so that the
# reference loop runs just before and after a call see the speed the machine
# ran it at (see Clock and README.md, Noise).
COUNT_FREE_SIZES = ((4, 4), (5, 3), (8, 2))
COUNT_FREE_MODES = ("whole", "cross")


def count_free_argv(m: int, n: int, mode: str) -> list[str]:
    return ["count-free", "--m", str(m), "--n", str(n), "--k", "2",
            "--mode", mode]


class CountFree:
    """``count-free --k 2`` in whole and cross mode on every size of
    ``COUNT_FREE_SIZES``, in an order drawn from the seed."""

    name = "count-free"
    busy = frozenset({"cli.main", "freeness.count_uk_free_bipartite"})

    def setup(self, work: Path, seed: int) -> None:
        self.reference = load_reference("count_free")
        self.calls = [(m, n, mode) for m, n in COUNT_FREE_SIZES
                      for mode in COUNT_FREE_MODES]
        random.Random(seed).shuffle(self.calls)

    def run_pass(self, client: Client) -> None:
        for m, n, mode in self.calls:
            want = self.reference[f"{m}x{n}"][mode]
            client.call(count_free_argv(m, n, mode),
                        lambda res, want=want: _mismatch(res.get("count"), want,
                                                         "count"))


# ---------------------------------------------------------------------------
# certify: per-request decompose / verify / pack / verify


PIECE_FIELDS = ("level", "layers", "placement")


def _pieces(pieces) -> list[dict]:
    return [{f: p.get(f) for f in PIECE_FIELDS} for p in pieces]


def certificate_fields(res: dict) -> dict:
    """The deterministic fields of a decomposition certificate, by name."""
    prov = res["provenance"]
    return {"A": res["A"], "parts": res["parts"], "bad_set": prov["bad_set"],
            "adjusted_labels": prov["adjusted_labels"],
            "pieces": _pieces(prov["packing"]["pieces"])}


def packing_fields(res: dict) -> dict:
    """The deterministic fields of a packing report, by name."""
    return {"pieces": _pieces(res["pieces"]), "residual": res["residual"]}


def _check_certificate(res: dict, want: dict):
    if res.get("verified") is not True:
        return "decompose did not verify its own certificate"
    return _mismatch(certificate_fields(res), want, "certificate")


def _check_packing(res: dict, want: dict):
    if res.get("structure_ok") is not True or res.get("maximal") is not True:
        return "packing report fails its own structure or maximality check"
    return _mismatch(packing_fields(res), want, "packing report")


def _check_valid(res: dict):
    return None if res.get("valid") is True else "re-verification rejected it"


ALPHA = "0.25"


def decompose_argv(graph: str, r: str, k: str) -> list[str]:
    return ["decompose", "--graph", graph, "--r", r, "--k", k, "--alpha", ALPHA]


def pack_argv(graph: str, labels: list[int], k: str) -> list[str]:
    """``pack`` on a certificate's ``adjusted_labels``."""
    return ["pack", "--graph", graph, "--parts", ",".join(map(str, labels)),
            "--k", k]


class Certify:
    """For every graph of the fixed planted pool (n in 8..40, r in {2, 3}),
    in an order drawn from the seed and with k in {1, 2} drawn from the seed:
    ``decompose`` with no hint, ``verify`` the certificate, ``pack`` on its
    adjusted labels, ``verify`` the packing report.  The pool is fixed so
    that every call has a pinned reference and every seed does the same
    work: the cost of the toy partitioner on n <= 12 varies by orders of
    magnitude from graph to graph, so a freshly drawn batch would make the
    pass time depend on the seed."""

    name = "certify"
    busy = frozenset({
        "cli.main", "graphs.max_clique", "graphs.induced_subgraph",
        "graphs.graph6_decode", "graphs.graph6_encode", "universal.shatters",
        "freeness.find_uk_copy", "regularity.min_intra_edges_parts",
        "regularity.toy_bbs_parts", "regularity.toy_szemeredi_partition",
        "regularity.is_epsilon_regular", "structure.decompose",
        "structure.max_bad_set", "structure.alpha_adjust",
        "structure.extract_universal_packing",
        "structure.verify_decomposition", "structure.verify_packing_report",
        "structure.verify_packing_maximality",
    })

    def setup(self, work: Path, seed: int) -> None:
        reference = load_reference("certify")
        pool = certify_pool()
        if [{k: e[k] for k in ("n", "r", "graph6")} for e in reference] != pool:
            raise RuntimeError("certify pool differs from reference/certify.json")
        rng = random.Random(seed)
        order = list(range(len(pool)))
        rng.shuffle(order)
        self.batch = []
        for i, idx in enumerate(order):
            entry = reference[idx]
            k = rng.choice((1, 2))
            graph = work / f"g{i:03d}.g6"
            graph.write_text(entry["graph6"] + "\n")
            self.batch.append({
                "graph": str(graph), "r": str(entry["r"]), "k": str(k),
                "certificate": str(work / f"g{i:03d}.cert.json"),
                "packing": str(work / f"g{i:03d}.pack.json"),
                "want": entry["expected"][str(k)],
            })

    def run_pass(self, client: Client) -> None:
        for e in self.batch:
            want = e["want"]
            text = client.call(
                decompose_argv(e["graph"], e["r"], e["k"]),
                lambda res: _check_certificate(res, want["certificate"]))
            verify_cert = ["verify", "--certificate", e["certificate"]]
            if text is None:
                client.attempted += 3
                for argv in (verify_cert, ["pack", "--graph", e["graph"]],
                             ["verify", "--certificate", e["packing"]]):
                    client.fail(argv, "not run: decompose gave no certificate")
                continue
            Path(e["certificate"]).write_text(text)
            client.call(verify_cert, _check_valid)
            labels = json.loads(text)["results"]["provenance"]["adjusted_labels"]
            text = client.call(
                pack_argv(e["graph"], labels, e["k"]),
                lambda res: _check_packing(res, want["packing"]))
            verify_pack = ["verify", "--certificate", e["packing"]]
            if text is None:
                client.attempted += 1
                client.fail(verify_pack, "not run: pack gave no report")
                continue
            Path(e["packing"]).write_text(text)
            client.call(verify_pack, _check_valid)


WORKLOADS = {w.name: w for w in (Census, CountFree, Certify)}
