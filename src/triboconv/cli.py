"""Command-line front end: sequence tables, derivations, identity
verification, the scale conjecture and the symmetric-lemma certification.

Exit codes: 0 all expected-pass checks passed, 1 unexpected verification
failure, 2 usage error.  Every number is serialized as a decimal string
(values routinely exceed native number ranges in report consumers), and
equal arguments yield byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import os
import random
import sys
# the C quoter that json.encoder uses, without the json package's import
from _json import encode_basestring_ascii as _quote

from . import derivation, identity_catalog, symmetric_identities
from .sequences import TriboSeq


class UsageError(Exception):
    pass


def _parse_triple(raw: str) -> tuple[int, int, int]:
    try:
        s0, s1, s2 = (int(p) for p in raw.split(","))
    except ValueError:
        raise UsageError(f"triple must be three comma-separated integers, got {raw!r}")
    return (s0, s1, s2)


def _check_count(name: str, value: int) -> None:
    """Reject a row count outside 1..DEFAULT_RANGE_CAP before any work."""
    if value < 1:
        raise UsageError(f"{name} must be >= 1")
    cap = identity_catalog.DEFAULT_RANGE_CAP
    if value > cap:
        raise UsageError(f"{name} {value} exceeds the cap {cap}")


def _json(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2)``, for a value built of dicts, lists,
    str and None only; ``indent`` starts each line at the value's depth.
    Anything else raises TypeError, so no number reaches a report unless
    it is a decimal string.  A str item of a dict or a list is quoted in place."""
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = []
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"report keys must be str, not {type(key).__name__}")
            items.append(_quote(key) + ": " + (_quote(item) if item.__class__ is str else _json(item, inner)))
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if isinstance(value, list):
        if not value:
            return "[]"
        try:
            body = ("," + inner).join(map(_quote, value))
        except TypeError:
            body = ("," + inner).join([_json(item, inner) for item in value])
        return "[" + inner + body + indent + "]"
    raise TypeError(f"report values must be str, None, dict or list, not {type(value).__name__}")


def _write_stdout(text: str) -> None:
    """Write and flush ``text`` to stdout; flushing here raises its write
    error here and not at exit.  An unwritable stdout is a usage error."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        raise UsageError(f"cannot write standard output: {exc.strerror or exc}")


def _render(args, doc, cells, lines) -> None:
    """Write one report in ``args.format`` to stdout or ``--out``: ``doc()``
    as JSON, ``cells()`` (header first) as TSV, or ``lines()`` as text.
    Only the producer of the asked-for format is called.  An unwritable
    path or standard output is a usage error."""
    if args.format == "json":
        text = _json(doc()) + "\n"
    elif args.format == "tsv":
        text = "".join("\t".join(row) + "\n" for row in cells())
    else:
        text = "".join(line + "\n" for line in lines())
    if args.out is None:
        _write_stdout(text)
        return
    try:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {args.out}: {exc.strerror or exc}")


# -- seq ---------------------------------------------------------------------

def _cmd_seq(args) -> int:
    triple = _parse_triple(args.triple)
    _check_count("count", args.count)
    terms = [str(v) for v in TriboSeq(*triple).terms(args.count)]
    _render(args, lambda: {"triple": [str(v) for v in triple], "terms": terms},
            lambda: [["k", "term"], *([str(k), t] for k, t in enumerate(terms))],
            lambda: [" ".join(terms)])
    return 0


# -- derive ------------------------------------------------------------------

_FAMILIES = {kind.value: kind for kind in derivation.FamilyKind}


def _cmd_derive(args) -> int:
    kind = _FAMILIES.get(args.family)
    if kind is None:
        raise UsageError(
            f"unknown family {args.family!r} (choose from {', '.join(sorted(_FAMILIES))})"
        )
    _check_count("n_max", args.n_max)
    if args.replicate_paper and kind not in derivation.REPLICABLE_KINDS:
        raise UsageError(f"no printed recursion to replicate for {args.family}")
    direct = derivation.derive_table(kind, args.n_max)
    replicated = derivation.replicate_paper_table(kind, direct) if args.replicate_paper else []
    # per row: the direct strings, the match string or None, the replayed
    # strings or None, and the one note that applies: the replay's when it
    # has no replicated value, else the non-integral one
    entries = []
    for n, scaled in enumerate(direct, start=1):
        scale, triple = str(scaled.scale), [str(v) for v in scaled.triple]
        note = None if scaled.integral else "non-integral scale"
        match = rep = None
        if args.replicate_paper and n >= 2:
            result = replicated[n - 2]
            match = "true" if result.match else "false"
            if result.recursive is None:
                note = result.note
            elif result.match:
                rep = scale, triple
            else:
                r = result.recursive
                # a replayed value equal to the direct one reuses its string
                rep = (scale if r.scale == scaled.scale else str(r.scale),
                       [t if v == w else str(v) for t, v, w in zip(triple, r.triple, scaled.triple)])
        entries.append((str(n), scale, triple, match, rep, note))

    def doc():
        rows = []
        for n, scale, triple, match, rep, note in entries:
            row = {"n": n, "A": scale, "triple": triple}
            if match is not None and rep is None:
                row.update(replicated=None, match=match, note=note)
            else:
                if note is not None:
                    row["note"] = note
                if rep is not None:
                    row.update(replicated={"A": rep[0], "triple": rep[1]}, match=match)
            rows.append(row)
        return {"family": args.family, "rows": rows}

    def cells():
        header = ["n", "A", "s0", "s1", "s2"]
        if not args.replicate_paper:
            return [header, *([n, scale, *triple] for n, scale, triple, *_ in entries)]
        out = [header + ["A_replicated", "r0", "r1", "r2", "match"]]
        for n, scale, triple, match, rep, _ in entries:
            tail = [rep[0], *rep[1]] if rep is not None else ["-"] * 4
            out.append([n, scale, *triple, *tail, match or "-"])
        return out

    def lines():
        out = []
        for n, scale, triple, match, rep, note in entries:
            line = f"n={n}: A={scale} triple=({', '.join(triple)})"
            if rep is not None:
                line += f"  replicated: A={rep[0]} triple=({', '.join(rep[1])}) match={match}"
            elif note is not None:
                line += f"  [{note}]"
            out.append(line)
        return out

    _render(args, doc, cells, lines)
    return 0


# -- verify ------------------------------------------------------------------

def _cmd_verify(args) -> int:
    if args.identity == "all":
        if args.nmax is not None or args.mmax is not None:
            raise UsageError("--nmax/--mmax apply to a single identity, not 'all'")
        suite = identity_catalog.verify_all(seed=args.seed)
    else:
        try:
            report = identity_catalog.verify(
                args.identity, nmax=args.nmax, mmax=args.mmax, seed=args.seed
            )
        except identity_catalog.CatalogError as exc:
            raise UsageError(str(exc))
        suite = identity_catalog.SuiteReport(seed=args.seed, reports=[report])
    doc = suite.to_dict()

    def cells():
        out = [["id", "status", "range", "params", "first_failure", "notes"]]
        for entry in doc["entries"]:
            ff = entry["first_failure"]
            points = (",".join(f"{k}={v}" for k, v in p.items()) for p in entry["params"])
            ff_cell = "" if ff is None else f"{ff['index']}: {ff['lhs']} != {ff['rhs']}"
            out.append([entry["id"], entry["status"], entry["range"], ";".join(points), ff_cell,
                        entry["notes"]])
        return out

    def lines():
        out = []
        for entry in doc["entries"]:
            ff = entry["first_failure"]
            line = f"{entry['id']}: {entry['status']}"
            if entry["range"]:
                line += f" ({entry['range']})"
            if ff is not None:
                line += f" first_failure at {ff['index']}: lhs={ff['lhs']} rhs={ff['rhs']}"
            if args.verbose and entry["notes"]:
                line += f"  [{entry['notes']}]"
            out.append(line)
        out.append(
            "summary: pass={pass} fail={fail} known-discrepancy={known_discrepancy} "
            "vacuous={vacuous} verdict={verdict}".format(**doc["summary"])
        )
        return out

    _render(args, lambda: doc, cells, lines)
    return 0 if doc["summary"]["verdict"] == "pass" else 1


# -- conjecture ----------------------------------------------------------------

def _cmd_conjecture(args) -> int:
    _check_count("N", args.n_max)
    report = derivation.conjecture_check(args.n_max)
    header = ["n", "cpower_scale_2n", "cofactor_scale_n", "equal"]
    entries = []
    for row in report.rows:
        cpower = str(row.cpower_scale)
        # an equal cofactor scale reuses the cpower scale's string
        cofactor = cpower if row.equal else str(row.cofactor_scale)
        entries.append([str(row.n), cpower, cofactor, "true" if row.equal else "false"])
    verdict = "all-equal" if report.all_equal else "counterexample-found"
    _render(args, lambda: {"rows": [dict(zip(header, e)) for e in entries], "verdict": verdict},
            lambda: [header, *entries],
            lambda: [*(f"n={n}: {cpower} == {cofactor} -> {equal}" for n, cpower, cofactor, equal in entries),
                     f"verdict: {verdict}"])
    return 0 if report.all_equal else 1


# -- symcheck -------------------------------------------------------------------

#: Largest accepted ``symcheck --grid``; grid 6 already certifies each family.
SYM_GRID_CAP = 12


def _cmd_symcheck(args) -> int:
    if args.grid < 6:
        raise UsageError("grid must be >= 6 (degree+1 certifies each family)")
    if args.grid > SYM_GRID_CAP:
        raise UsageError(f"grid {args.grid} exceeds the cap {SYM_GRID_CAP}")
    _check_count("draws", args.draws)
    header = ["degree", "draws", "grid", "status"]
    cells = []
    for degree in (3, 4, 5):
        rng = random.Random(f"{args.seed}:sym{degree}")
        draws = (symmetric_identities.random_pairs(degree, rng) for _ in range(args.draws))
        ok = symmetric_identities.verify_draws(degree, draws, args.grid)
        cells.append([str(degree), str(args.draws), str(args.grid), "pass" if ok else "fail"])
    verdict = "pass" if all(c[3] == "pass" for c in cells) else "fail"
    _render(args,
            lambda: {"seed": str(args.seed), "rows": [dict(zip(header, c)) for c in cells],
                     "verdict": verdict},
            lambda: [header, *cells],
            lambda: [*(f"degree {d}: {status} ({n} draws, grid {g})" for d, n, g, status in cells),
                     f"verdict: {verdict}"])
    return 0 if verdict == "pass" else 1


# -- parser ---------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose help goes through ``_write_stdout``, so an
    unwritable stdout is a usage error; argparse would ignore the help's
    write error and exit 0.  Messages to stderr keep argparse's path."""

    def _print_message(self, message, file=None):
        if message and file is sys.stdout:
            _write_stdout(message)
        else:
            super()._print_message(message, file)


def build_parser() -> argparse.ArgumentParser:
    """A new parser for the ``triboconv`` command line.  ``main`` parses
    with one built on its first call; this one is the caller's to keep."""
    parser = _Parser(
        prog="triboconv",
        description="Exact derivation and verification of Tribonacci convolution identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, run):
        p.add_argument("--format", choices=("json", "tsv", "text"), default="text")
        p.add_argument("--out", metavar="PATH", default=None)
        p.set_defaults(run=run)

    p_seq = sub.add_parser("seq", help="print terms of a generalized Tribonacci sequence")
    p_seq.add_argument("triple", help="initial values, e.g. 0,1,1")
    p_seq.add_argument("count", type=int, help="number of terms to print")
    add_common(p_seq, _cmd_seq)

    p_derive = sub.add_parser("derive", help="canonical (scale, triple) table for a family")
    p_derive.add_argument("family", help="one of " + ", ".join(sorted(_FAMILIES)))
    p_derive.add_argument("n_max", type=int)
    p_derive.add_argument("--replicate-paper", action="store_true",
                          help="also run the printed recursion and show a match column")
    add_common(p_derive, _cmd_derive)

    p_verify = sub.add_parser("verify", help="verify one identity or 'all'")
    p_verify.add_argument("identity", help="identity id or 'all'")
    p_verify.add_argument("--nmax", type=int, default=None)
    p_verify.add_argument("--mmax", type=int, default=None)
    p_verify.add_argument("--seed", type=int, default=identity_catalog.DEFAULT_SEED)
    p_verify.add_argument("-v", "--verbose", action="count", default=0)
    add_common(p_verify, _cmd_verify)

    p_conj = sub.add_parser("conjecture", help="check the scale conjecture up to N")
    p_conj.add_argument("n_max", type=int, metavar="N")
    add_common(p_conj, _cmd_conjecture)

    p_sym = sub.add_parser("symcheck", help="grid-certify the symmetric lemma families")
    p_sym.add_argument("--seed", type=int, default=0)
    p_sym.add_argument("--draws", type=int, default=20)
    p_sym.add_argument("--grid", type=int, default=6)
    add_common(p_sym, _cmd_symcheck)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # argparse keeps no per-call state in a parser: each parse fills a new
    # Namespace, and help and usage read the terminal width when formatted
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    # exact values routinely exceed the default int<->str digit limit; it is
    # lifted for this call only, so a library caller keeps its own
    return identity_catalog._without_digit_limit(_main, argv)


def _main(argv: list[str] | None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.run(args)
    except SystemExit as exc:
        code = exc.code
        return 0 if code in (None, 0) else int(code)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    """Process entry (the ``triboconv`` script and ``python -m``): exit
    with ``main``'s code.  Every write to stdout is flushed and checked in
    ``main``, which reports a failed one as exit 2; the bytes that stdout
    could not take stay in its buffer and would fail the interpreter's
    flush at exit again, so they are dropped here."""
    code = main()
    try:
        sys.stdout.flush()
    except OSError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    run()
