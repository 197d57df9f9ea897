"""Seeded workloads for the benchmark: a fixed list of CLI argument vectors
per workload, each paired with a correctness gate that knows the answer.

The seed picks catalog/symcheck seeds, the op order and a narrow size
jitter; the jitter is balanced between ops so the total work of a pass
moves by only a few percent between seeds.  Sizes are chosen so that every
op takes roughly the same time on one machine (about 0.8 s at the commit
that introduced the benchmark), which keeps the per-op latency quantiles
from jumping between op kinds when the number of completed passes changes.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from math import prod
from typing import Callable

FORMATS = ("json", "tsv", "text")

#: Known answer of ``verify all`` at this catalog: two printed claims are
#: carried as known discrepancies (README "Known discrepancies").
SUITE_SUMMARY = {"pass": 21, "known_discrepancy": 2, "fail": 0, "vacuous": 0, "verdict": "pass"}


class GateFailure(Exception):
    """An op's output contradicts its known answer."""


@dataclass(frozen=True)
class Op:
    """One CLI invocation.  ``check`` takes the text written to ``--out``,
    raises GateFailure when it is wrong and returns the op's goodput items,
    or None when the format does not carry them; ``work`` names the
    computation independently of the output format, so such ops borrow the
    item count of another format of the same work."""

    argv: tuple[str, ...]
    check: Callable[[str], int | None]
    work: str


def _expect(what: str, got, want) -> None:
    if got != want:
        raise GateFailure(f"{what}: expected {want!r}, got {got!r}")


def _index_points(range_desc: str) -> int:
    """Number of index points in a report range such as 'n=1..4, m=0..60'."""
    if not range_desc:
        return 1
    spans = (part.split("=", 1)[1].split("..") for part in range_desc.split(", "))
    return prod(int(hi) - int(lo) + 1 for lo, hi in spans)


# -- gates -------------------------------------------------------------------

def check_suite(fmt: str, summary: dict = SUITE_SUMMARY) -> Callable[[str], int | None]:
    """Gate of ``verify all``: the summary counts and verdict must equal
    ``summary``.  Items are index points times parameter points."""

    def check_json(text: str) -> int:
        doc = json.loads(text)
        got = {key: doc["summary"][key] for key in summary}
        _expect("summary", got, {k: str(v) for k, v in summary.items()})
        return sum(_index_points(e["range"]) * max(1, len(e["params"])) for e in doc["entries"])

    def check_tsv(text: str) -> int:
        header, *rows = (line.split("\t") for line in text.splitlines())
        _expect("tsv header", header[:4], ["id", "status", "range", "params"])
        statuses = [row[1] for row in rows]
        got = {
            "pass": statuses.count("pass"),
            "known_discrepancy": statuses.count("known-discrepancy"),
            "fail": statuses.count("fail"),
            "vacuous": statuses.count("vacuous"),
        }
        got["verdict"] = "pass" if got["fail"] == 0 else "fail"
        _expect("summary", {key: got[key] for key in summary}, summary)
        return sum(_index_points(row[2]) * len(row[3].split(";")) for row in rows)

    def check_text(text: str) -> None:
        last = text.splitlines()[-1]
        if not last.startswith("summary: "):
            raise GateFailure(f"no summary line, last line is {last!r}")
        fields = dict(item.split("=", 1) for item in last[len("summary: "):].split())
        got = {key.replace("_", "-"): fields.get(key.replace("_", "-")) for key in summary}
        _expect("summary", got, {k.replace("_", "-"): str(v) for k, v in summary.items()})
        return None

    return {"json": check_json, "tsv": check_tsv, "text": check_text}[fmt]


def check_single(identity: str, status: str = "pass") -> Callable[[str], int]:
    """Gate of ``verify <id> --format json``: one entry with ``status``."""

    def check(text: str) -> int:
        entries = json.loads(text)["entries"]
        _expect("entry ids", [e["id"] for e in entries], [identity])
        _expect(f"{identity} status", entries[0]["status"], status)
        return _index_points(entries[0]["range"]) * max(1, len(entries[0]["params"]))

    return check


def check_conjecture(n_max: int, verdict: str = "all-equal") -> Callable[[str], int]:
    def check(text: str) -> int:
        doc = json.loads(text)
        _expect("conjecture verdict", doc["verdict"], verdict)
        _expect("conjecture rows", len(doc["rows"]), n_max)
        return len(doc["rows"])

    return check


def check_derive(m_max: int, match: str) -> Callable[[str], int]:
    """Gate of ``derive --replicate-paper --format json``: every row from
    n = 2 on carries ``match`` (true for the correct printed recursions,
    false for the defective pairsumsq one)."""

    def check(text: str) -> int:
        rows = json.loads(text)["rows"]
        _expect("derive rows", len(rows), m_max)
        bad = [row["n"] for row in rows[1:] if row.get("match") != match]
        if bad:
            raise GateFailure(f"match != {match} at n = {', '.join(bad[:5])}")
        return len(rows)

    return check


def check_symcheck(draws: int, grid: int, verdict: str = "pass") -> Callable[[str], int]:
    def check(text: str) -> int:
        doc = json.loads(text)
        _expect("symcheck verdict", doc["verdict"], verdict)
        _expect("symcheck degrees", [r["degree"] for r in doc["rows"]], ["3", "4", "5"])
        _expect("symcheck draws", {(r["draws"], r["grid"]) for r in doc["rows"]}, {(str(draws), str(grid))})
        return len(doc["rows"]) * draws * grid**3

    return check


# -- op builders -----------------------------------------------------------------

def verify_all(seed: int, fmt: str) -> Op:
    argv = ("verify", "all", "--seed", str(seed), "--format", fmt)
    return Op(argv, check_suite(fmt), f"verify all --seed {seed}")


def verify_one(identity: str, nmax: int, seed: int) -> Op:
    argv = ("verify", identity, "--nmax", str(nmax), "--seed", str(seed), "--format", "json")
    return Op(argv, check_single(identity), " ".join(argv))


def conjecture(n_max: int) -> Op:
    argv = ("conjecture", str(n_max), "--format", "json")
    return Op(argv, check_conjecture(n_max), " ".join(argv))


def derive_replicated(family: str, m_max: int) -> Op:
    argv = ("derive", family, str(m_max), "--replicate-paper", "--format", "json")
    match = "false" if family == "pairsumsq" else "true"
    return Op(argv, check_derive(m_max, match), " ".join(argv))


def symcheck(seed: int, draws: int, grid: int = 6) -> Op:
    argv = ("symcheck", "--seed", str(seed), "--draws", str(draws), "--grid", str(grid), "--format", "json")
    return Op(argv, check_symcheck(draws, grid), " ".join(argv))


def _suite(rng: random.Random, tiny: bool) -> list[Op]:
    seeds = [rng.randrange(10**6) for _ in range(1 if tiny else 2)]
    return [verify_all(seed, fmt) for seed in seeds for fmt in FORMATS]


def _deep_index(rng: random.Random, tiny: bool) -> list[Op]:
    a, b = rng.randint(-2, 2), rng.randint(-2, 2)
    sizes = {"T4": 205 + a, "T3": 248 - a, "T4R": 280 + b, "P3": 440 - b}
    if tiny:
        sizes = {"T4": 12, "T3": 12, "T4R": 12, "P3": 20}
    return [verify_one(identity, nmax, rng.randrange(10**6)) for identity, nmax in sizes.items()]


def _scale_audit(rng: random.Random, tiny: bool) -> list[Op]:
    c, d = rng.randint(-3, 3), rng.randint(-1, 1)
    n_conj, m = (6, 4) if tiny else (200 + c, 46)
    sizes = {"cpower": m + d, "cofactor": m - d, "pairsumsq": m}
    return [conjecture(n_conj)] + [derive_replicated(f, size) for f, size in sizes.items()]


def _symcheck(rng: random.Random, tiny: bool) -> list[Op]:
    return [symcheck(rng.randrange(10**6), 1 if tiny else 5) for _ in range(1 if tiny else 4)]


#: Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "suite": _suite,
    "deep_index": _deep_index,
    "scale_audit": _scale_audit,
    "symcheck": _symcheck,
}


def build(name: str, seed: int, tiny: bool = False) -> list[Op]:
    """The op list of one pass of workload ``name``; the same seed gives
    the same list.  ``tiny`` shrinks every size for smoke tests."""
    rng = random.Random(f"{name}:{seed}")
    ops = WORKLOADS[name](rng, tiny)
    rng.shuffle(ops)
    return ops
