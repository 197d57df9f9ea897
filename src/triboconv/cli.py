"""Command-line front end: sequence tables, derivations, identity
verification, the scale conjecture and the symmetric-lemma certification.

Exit codes: 0 all expected-pass checks passed, 1 unexpected verification
failure, 2 usage error.  Every number is serialized as a decimal string
(values routinely exceed native number ranges in report consumers), and
equal arguments yield byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

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


def _emit(text: str, args) -> None:
    if args.out is None:
        sys.stdout.write(text)
        return
    try:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {args.out}: {exc.strerror or exc}")


def _json_doc(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _tsv_doc(header: list[str], rows: list[list[str]]) -> str:
    lines = ["\t".join(header)]
    lines.extend("\t".join(row) for row in rows)
    return "\n".join(lines) + "\n"


# -- seq ---------------------------------------------------------------------

def _cmd_seq(args) -> int:
    triple = _parse_triple(args.triple)
    if args.count < 1:
        raise UsageError("count must be >= 1")
    terms = [str(v) for v in TriboSeq(*triple).terms(args.count)]
    if args.format == "json":
        doc = _json_doc({"triple": [str(v) for v in triple], "terms": terms})
    elif args.format == "tsv":
        doc = _tsv_doc(["k", "term"], [[str(k), t] for k, t in enumerate(terms)])
    else:
        doc = " ".join(terms) + "\n"
    _emit(doc, args)
    return 0


# -- derive ------------------------------------------------------------------

_FAMILIES = {kind.value: kind for kind in derivation.FamilyKind}


def _cmd_derive(args) -> int:
    kind = _FAMILIES.get(args.family)
    if kind is None:
        raise UsageError(
            f"unknown family {args.family!r} (choose from {', '.join(sorted(_FAMILIES))})"
        )
    if args.n_max < 1:
        raise UsageError("n_max must be >= 1")
    if args.replicate_paper and kind not in derivation.REPLICABLE_KINDS:
        raise UsageError(f"no printed recursion to replicate for {args.family}")
    rows = []
    for n in range(1, args.n_max + 1):
        scaled = derivation.derive(derivation.PowerFamily(kind, n))
        row = {
            "n": str(n),
            "A": str(scaled.scale),
            "triple": [str(v) for v in scaled.triple],
        }
        if not scaled.integral:
            row["note"] = "non-integral scale"
        if args.replicate_paper and n >= 2:
            result = derivation.derive_paper_recursive(derivation.PowerFamily(kind, n))
            if result.recursive is None:
                row["replicated"] = None
                row["match"] = "false"
                row["note"] = result.note
            else:
                row["replicated"] = {
                    "A": str(result.recursive.scale),
                    "triple": [str(v) for v in result.recursive.triple],
                }
                row["match"] = "true" if result.match else "false"
        rows.append(row)
    if args.format == "json":
        doc = _json_doc({"family": args.family, "rows": rows})
    elif args.format == "tsv":
        header = ["n", "A", "s0", "s1", "s2"]
        if args.replicate_paper:
            header += ["A_replicated", "r0", "r1", "r2", "match"]
        body = []
        for row in rows:
            line = [row["n"], row["A"], *row["triple"]]
            if args.replicate_paper:
                rep = row.get("replicated")
                if rep:
                    line += [rep["A"], *rep["triple"], row["match"]]
                else:
                    line += ["-", "-", "-", "-", row.get("match", "-")]
            body.append(line)
        doc = _tsv_doc(header, body)
    else:
        lines = []
        for row in rows:
            text = f"n={row['n']}: A={row['A']} triple=({', '.join(row['triple'])})"
            rep = row.get("replicated")
            if rep:
                text += (
                    f"  replicated: A={rep['A']} triple=({', '.join(rep['triple'])})"
                    f" match={row['match']}"
                )
            elif "note" in row:
                text += f"  [{row['note']}]"
            lines.append(text)
        doc = "\n".join(lines) + "\n"
    _emit(doc, args)
    return 0


# -- verify ------------------------------------------------------------------

def _verify_text(suite_dict: dict, verbosity: int) -> str:
    lines = []
    for entry in suite_dict["entries"]:
        line = f"{entry['id']}: {entry['status']}"
        if entry["range"]:
            line += f" ({entry['range']})"
        ff = entry["first_failure"]
        if ff is not None:
            line += f" first_failure at {ff['index']}: lhs={ff['lhs']} rhs={ff['rhs']}"
        if verbosity and entry["notes"]:
            line += f"  [{entry['notes']}]"
        lines.append(line)
    summary = suite_dict["summary"]
    lines.append(
        "summary: pass={pass} fail={fail} known-discrepancy={known_discrepancy} "
        "vacuous={vacuous} verdict={verdict}".format(**summary)
    )
    return "\n".join(lines) + "\n"


def _verify_tsv(suite_dict: dict) -> str:
    header = ["id", "status", "range", "params", "first_failure", "notes"]
    rows = []
    for entry in suite_dict["entries"]:
        ff = entry["first_failure"]
        ff_str = "" if ff is None else f"{ff['index']}: {ff['lhs']} != {ff['rhs']}"
        params = ";".join(
            ",".join(f"{k}={v}" for k, v in point.items()) for point in entry["params"]
        )
        rows.append([entry["id"], entry["status"], entry["range"], params, ff_str, entry["notes"]])
    return _tsv_doc(header, rows)


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
    doc_dict = suite.to_dict()
    if args.format == "json":
        doc = _json_doc(doc_dict)
    elif args.format == "tsv":
        doc = _verify_tsv(doc_dict)
    else:
        doc = _verify_text(doc_dict, args.verbose)
    _emit(doc, args)
    return 0 if suite.verdict == "pass" else 1


# -- conjecture ----------------------------------------------------------------

def _cmd_conjecture(args) -> int:
    if args.n_max < 1:
        raise UsageError("N must be >= 1")
    report = derivation.conjecture_check(args.n_max)
    rows = [
        {
            "n": str(row.n),
            "cpower_scale_2n": str(row.cpower_scale),
            "cofactor_scale_n": str(row.cofactor_scale),
            "equal": "true" if row.equal else "false",
        }
        for row in report.rows
    ]
    verdict = "all-equal" if report.all_equal else "counterexample-found"
    if args.format == "json":
        doc = _json_doc({"rows": rows, "verdict": verdict})
    elif args.format == "tsv":
        doc = _tsv_doc(
            ["n", "cpower_scale_2n", "cofactor_scale_n", "equal"],
            [[r["n"], r["cpower_scale_2n"], r["cofactor_scale_n"], r["equal"]] for r in rows],
        )
    else:
        lines = [
            f"n={r['n']}: {r['cpower_scale_2n']} == {r['cofactor_scale_n']} -> {r['equal']}"
            for r in rows
        ]
        lines.append(f"verdict: {verdict}")
        doc = "\n".join(lines) + "\n"
    _emit(doc, args)
    return 0 if report.all_equal else 1


# -- symcheck -------------------------------------------------------------------

def _cmd_symcheck(args) -> int:
    if args.grid < 6:
        raise UsageError("grid must be >= 6 (degree+1 certifies each family)")
    rows = []
    all_ok = True
    for degree in (3, 4, 5):
        rng = random.Random(f"{args.seed}:sym{degree}")
        ok = all(
            symmetric_identities.verify_sym_identity(
                degree, symmetric_identities.random_params(degree, rng), args.grid
            )
            for _ in range(args.draws)
        )
        all_ok &= ok
        rows.append({"degree": str(degree), "draws": str(args.draws),
                     "grid": str(args.grid), "status": "pass" if ok else "fail"})
    if args.format == "json":
        doc = _json_doc({"seed": str(args.seed), "rows": rows,
                         "verdict": "pass" if all_ok else "fail"})
    elif args.format == "tsv":
        doc = _tsv_doc(["degree", "draws", "grid", "status"],
                       [[r["degree"], r["draws"], r["grid"], r["status"]] for r in rows])
    else:
        lines = [
            f"degree {r['degree']}: {r['status']} ({r['draws']} draws, grid {r['grid']})"
            for r in rows
        ]
        lines.append(f"verdict: {'pass' if all_ok else 'fail'}")
        doc = "\n".join(lines) + "\n"
    _emit(doc, args)
    return 0 if all_ok else 1


# -- parser ---------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="triboconv",
        description="Exact derivation and verification of Tribonacci convolution identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=("json", "tsv", "text"), default="text")
        p.add_argument("--out", metavar="PATH", default=None)

    p_seq = sub.add_parser("seq", help="print terms of a generalized Tribonacci sequence")
    p_seq.add_argument("triple", help="initial values, e.g. 0,1,1")
    p_seq.add_argument("count", type=int, help="number of terms to print")
    add_common(p_seq)

    p_derive = sub.add_parser("derive", help="canonical (scale, triple) table for a family")
    p_derive.add_argument("family", help="one of " + ", ".join(sorted(_FAMILIES)))
    p_derive.add_argument("n_max", type=int)
    p_derive.add_argument("--replicate-paper", action="store_true",
                          help="also run the printed recursion and show a match column")
    add_common(p_derive)

    p_verify = sub.add_parser("verify", help="verify one identity or 'all'")
    p_verify.add_argument("identity", help="identity id or 'all'")
    p_verify.add_argument("--nmax", type=int, default=None)
    p_verify.add_argument("--mmax", type=int, default=None)
    p_verify.add_argument("--seed", type=int, default=identity_catalog.DEFAULT_SEED)
    p_verify.add_argument("-v", "--verbose", action="count", default=0)
    add_common(p_verify)

    p_conj = sub.add_parser("conjecture", help="check the scale conjecture up to N")
    p_conj.add_argument("n_max", type=int, metavar="N")
    add_common(p_conj)

    p_sym = sub.add_parser("symcheck", help="grid-certify the symmetric lemma families")
    p_sym.add_argument("--seed", type=int, default=0)
    p_sym.add_argument("--draws", type=int, default=20)
    p_sym.add_argument("--grid", type=int, default=6)
    add_common(p_sym)

    return parser


_DISPATCH = {
    "seq": _cmd_seq,
    "derive": _cmd_derive,
    "verify": _cmd_verify,
    "conjecture": _cmd_conjecture,
    "symcheck": _cmd_symcheck,
}


def main(argv: list[str] | None = None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        # exact values routinely exceed the default int<->str digit limit
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return 0 if code in (None, 0) else int(code)
    try:
        return _DISPATCH[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
