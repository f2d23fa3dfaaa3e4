"""Command-line interface.

One subcommand per library operation, with plain text, JSON, or DOT output.
Exit codes: 0 success, 2 invalid input, 3 size cap exceeded, 4 monomial not
in basis.  The environment variable HESSKIT_MAX_N (or --max-n) overrides the
enumeration size cap.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import core, polyalg, regnilp, springer
from .core import (
    ConstraintViolation,
    Filling,
    HessenbergFunction,
    Monomial,
    NotInBasis,
    NotPermissible,
    SizeLimitExceeded,
)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_CAP = 3
EXIT_NOT_IN_BASIS = 4


def int_list(text: str) -> tuple[int, ...]:
    """The argparse type of --h and --mu; a bad entry names the option and its value."""
    return tuple(int(part) for part in text.split(","))


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return int(text)


def _parse_word(text: str, mu: tuple[int, ...]) -> tuple[int, ...]:
    """Accept ``2413``, ``2,4,1,3``, or row-separated ``24/13`` or ``2,4/1,3``,
    whose row lengths must then be ``mu``."""
    rows = []
    for part in text.split("/"):
        entries = part.split(",") if "," in text and part else list(part)
        if "" in entries:
            raise ValueError(f"empty entry in word {text!r}")
        try:
            rows.append([int(entry) for entry in entries])
        except ValueError:
            raise ValueError(f"non-integer entry in filling {text!r}") from None
    lengths, mu_text = ",".join(str(len(row)) for row in rows), ",".join(map(str, mu))
    if "/" in text and lengths != mu_text:
        raise ValueError(f"filling {text!r} has rows of lengths {lengths}, but --mu is {mu_text}")
    word = tuple(v for row in rows for v in row)
    if len(word) != sum(mu):
        raise ValueError(f"word {text!r} has {len(word)} entries, expected {sum(mu)}")
    return word


def _emit(text: str) -> None:
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


def _emit_json(obj) -> None:
    _emit(json.dumps(obj, sort_keys=True))


def _phi_record(h: HessenbergFunction, pairs: core.DimensionPairSet) -> dict:
    """Dimension pairs of a filling and their monomial, computed once for any format."""
    return {"pairs": pairs, "monomial": Monomial(pairs.larger_counts(h.n))}


def _json_record(record: dict) -> dict:
    return {key: value.to_json() for key, value in record.items()}


def _pair_text(pairs) -> str:
    return ",".join(f"({a},{b})" for a, b in pairs.sorted()) or "-"


def cmd_fillings(args) -> int:
    h = HessenbergFunction(args.h)
    fillings = core.enumerate_fillings(h, args.mu, max_n=args.max_n)
    records = ({"filling": f, **_phi_record(h, core.dimension_pairs(h, f))} for f in fillings)
    if args.format == "json":
        _emit_json([_json_record(r) for r in records])
    else:
        for r in records:
            _emit(f"{r['filling']}\t{_pair_text(r['pairs'])}\t{r['monomial']}")
    return EXIT_OK


def cmd_betti(args) -> int:
    h = HessenbergFunction(args.h)
    betti = core.betti_numbers(h, args.mu, max_n=args.max_n)
    if args.format == "json":
        _emit_json({"betti": list(betti)})
        return EXIT_OK
    _emit(",".join(str(b) for b in betti))
    terms = []
    for k, b in enumerate(betti):
        if not b:
            continue
        if k == 0:
            terms.append(str(b))
        elif b == 1:
            terms.append(f"t^{2 * k}")
        else:
            terms.append(f"{b}*t^{2 * k}")
    _emit(" + ".join(terms) if terms else "0")
    return EXIT_OK


def cmd_tree(args) -> int:
    needs_mu = args.kind in ("gp", "modified-gp")
    if needs_mu and args.mu is None:
        raise ValueError(f"--kind {args.kind} requires --mu")
    if not needs_mu and args.h is None:
        raise ValueError(f"--kind {args.kind} requires --h")
    if needs_mu:
        builder = springer.build_gp_tree if args.kind == "gp" else springer.build_modified_gp_tree
        tree = builder(args.mu, max_n=args.max_n)
    else:
        h = HessenbergFunction(args.h)
        builder = regnilp.build_h_tree if args.kind == "h" else regnilp.build_h_tableau_tree
        tree = builder(h, max_n=args.max_n)
    if args.format == "json":
        _emit_json(tree.to_json())
    else:
        _emit(tree.to_dot())
    return EXIT_OK


def cmd_ideal(args) -> int:
    h = HessenbergFunction(args.h)
    core._check_cap(h.n, args.max_n, "ideal generation")
    generators = polyalg.jh_generators(h)
    if args.format == "json":
        _emit_json([g.to_json() for g in generators])
    else:
        for g in generators:
            _emit(str(g))
    return EXIT_OK


def cmd_basis(args) -> int:
    if (args.h is None) == (args.mu is None):
        raise ValueError("exactly one of --h and --mu is required")
    if args.h is not None:
        h = HessenbergFunction(args.h)
        core._check_cap(h.n, args.max_n, "basis enumeration")
        basis = regnilp.b_h_basis(h)
    else:
        basis = springer.garsia_procesi_basis(args.mu, max_n=args.max_n)
    ordered = sorted(basis)
    if args.format == "json":
        _emit_json([m.to_json() for m in ordered])
    else:
        for m in ordered:
            _emit(str(m))
    return EXIT_OK


def cmd_phi(args) -> int:
    h = HessenbergFunction(args.h)
    filling = Filling.from_word(args.mu, _parse_word(args.filling, args.mu))
    record = _phi_record(h, core.dimension_pairs(h, filling))
    if args.format == "json":
        _emit_json(_json_record(record))
    else:
        _emit("pairs: " + _pair_text(record["pairs"]))
        _emit(str(record["monomial"]))
    return EXIT_OK


def cmd_psi(args) -> int:
    monomial = Monomial.parse(args.monomial, sum(args.mu))
    filling = springer.psi(args.mu, monomial)
    if args.format == "json":
        _emit_json(filling.to_json())
    else:
        _emit(str(filling))
    return EXIT_OK


def cmd_psih(args) -> int:
    h = HessenbergFunction(args.h)
    monomial = Monomial.parse(args.monomial, h.n)
    filling = regnilp.psi_h(h, monomial)
    if args.format == "json":
        _emit_json(filling.to_json())
    else:
        _emit(str(filling))
    return EXIT_OK


def _verify_record(h: HessenbergFunction, max_n: int | None) -> dict:
    report = regnilp.verify_counts(h, max_n=max_n)
    return {**vars(report), "h": list(h.values), "ok": report.ok()}


def cmd_verify(args) -> int:
    if (args.h is None) == (args.all_n is None):
        raise ValueError("exactly one of --h and --all-n is required")
    if args.h is not None:
        h = HessenbergFunction(args.h)
        record = _verify_record(h, args.max_n)
        if args.format == "json":
            _emit_json(record)
        else:
            _emit(f"h={h}")
            for key in ("fillings", "leaves", "prod_nu", "prod_beta", "a_equals_b"):
                _emit(f"{key}: {json.dumps(record[key])}")
            _emit("OK" if record["ok"] else "FAIL")
        return EXIT_OK
    n = args.all_n
    core._check_cap(n, args.max_n, "identity sweep")
    checked = 0
    failures = []
    for h in core.hessenberg_functions(n):
        checked += 1
        record = _verify_record(h, args.max_n)
        multisets_equal = sorted(core.nu_tuple(h)) == sorted(core.degree_tuple(h))
        if not (record["ok"] and multisets_equal):
            failures.append(record)
    sweep = {"checked": checked, "failures": failures}
    if args.format == "json":
        _emit_json(sweep)
    else:
        for record in failures:
            _emit(f"FAIL {json.dumps(record, sort_keys=True)}")
        _emit(f"{checked} functions checked, {len(failures)} failures")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hesskit",
        description="Filling combinatorics and polynomial algebra "
        "for Hessenberg and Springer varieties.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats=("plain", "json"), capped=True):
        p.add_argument("--format", choices=formats, default=formats[0])
        if capped:
            p.add_argument("--max-n", type=_positive_int, help="override the size cap")

    p = sub.add_parser("fillings", help="list permissible fillings with pairs and monomials")
    p.add_argument("--h", type=int_list, required=True, help="Hessenberg values, e.g. 1,3,3")
    p.add_argument("--mu", type=int_list, required=True, help="shape row lengths, e.g. 2,1")
    common(p)
    p.set_defaults(func=cmd_fillings)

    p = sub.add_parser("betti", help="even Betti numbers from filling counts")
    p.add_argument("--h", type=int_list, required=True)
    p.add_argument("--mu", type=int_list, required=True)
    common(p)
    p.set_defaults(func=cmd_betti)

    p = sub.add_parser("tree", help="serialize one of the four tree constructions")
    p.add_argument("--kind", required=True, choices=("gp", "modified-gp", "h", "h-tableau"))
    p.add_argument("--h", type=int_list)
    p.add_argument("--mu", type=int_list)
    common(p, formats=("dot", "json"))
    p.set_defaults(func=cmd_tree)

    p = sub.add_parser("ideal", help="generators of the ideal attached to h")
    p.add_argument("--h", type=int_list, required=True)
    common(p)
    p.set_defaults(func=cmd_ideal)

    p = sub.add_parser("basis", help="monomial basis (staircase for --h, tree leaves for --mu)")
    p.add_argument("--h", type=int_list)
    p.add_argument("--mu", type=int_list)
    common(p)
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("phi", help="dimension pairs and monomial image of a filling")
    p.add_argument("--h", type=int_list, required=True)
    p.add_argument("--mu", type=int_list, required=True)
    p.add_argument("--filling", required=True, help="row-reading word, e.g. 3214 or 2,4/1,3")
    common(p, capped=False)
    p.set_defaults(func=cmd_phi)

    p = sub.add_parser("psi", help="filling for a basis monomial (minimal h)")
    p.add_argument("--mu", type=int_list, required=True)
    p.add_argument("--monomial", required=True, help="e.g. x3*x4^2")
    common(p, capped=False)
    p.set_defaults(func=cmd_psi)

    p = sub.add_parser("psih", help="one-row filling for a staircase basis monomial")
    p.add_argument("--h", type=int_list, required=True)
    p.add_argument("--monomial", required=True)
    common(p, capped=False)
    p.set_defaults(func=cmd_psih)

    p = sub.add_parser("verify", help="check the counting identities")
    p.add_argument("--h", type=int_list)
    p.add_argument("--all-n", type=_positive_int, default=None, dest="all_n")
    common(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SizeLimitExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except NotInBasis as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_IN_BASIS
    except (ConstraintViolation, NotPermissible, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
