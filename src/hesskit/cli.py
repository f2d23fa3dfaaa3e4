"""Command-line interface.

One subcommand per library operation, with plain text, JSON, or DOT output.
Exit codes: 0 success, 1 output pipe closed early, 2 invalid input, 3 size
cap exceeded (or a JSON tree nested too deeply to encode), 4 monomial not
in basis.  The environment variable HESSKIT_MAX_N (or --max-n) overrides
the enumeration size cap.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from math import prod

from . import core, polyalg, regnilp, springer
from .core import Filling, HessenbergFunction, Monomial, NotInBasis, SizeLimitExceeded

EXIT_OK = 0
EXIT_CLOSED = 1
EXIT_INVALID = 2
EXIT_CAP = 3
EXIT_NOT_IN_BASIS = 4


def int_list(text: str) -> tuple[int, ...]:
    """The argparse type of --h and --mu; a bad entry names the option and its value."""
    return tuple(map(core.read_int, text.split(",")))


def _positive_int(text: str) -> int:
    try:
        if value := core.read_int(text):
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")


def _parse_word(text: str, mu: tuple[int, ...]) -> tuple[int, ...]:
    """Accept ``2413``, ``2,4,1,3``, or row-separated ``24/13`` or ``2,4/1,3``,
    whose row lengths must then be ``mu``."""
    rows = []
    for part in text.split("/"):
        entries = part.split(",") if "," in text and part else list(part)
        if "" in entries:
            raise ValueError(f"empty entry in word {text!r}")
        try:
            rows.append([core.read_int(entry) for entry in entries])
        except ValueError:
            raise ValueError(f"non-integer entry in filling {text!r}") from None
    lengths, mu_text = ",".join(str(len(row)) for row in rows), ",".join(map(str, mu))
    if "/" in text and lengths != mu_text:
        raise ValueError(f"filling {text!r} has rows of lengths {lengths}, but --mu is {mu_text}")
    word = tuple(v for row in rows for v in row)
    if len(word) != sum(mu):
        raise ValueError(f"word {text!r} has {len(word)} entries, expected {sum(mu)}")
    return word


def _print(args, as_json, lines) -> int:
    """Print a command's result: one JSON line of ``as_json()`` under
    ``--format json``, else each line that ``lines()`` yields.  Only the
    chosen callable runs, so a result is built in one format only."""
    if args.format == "json":
        print(json.dumps(as_json(), sort_keys=True))
    else:
        for line in lines():
            print(line)
    sys.stdout.flush()  # a closed pipe raises here, inside main, not at exit
    return EXIT_OK


def _phi_record(n: int, boxes: list) -> dict:
    """Dimension pairs of a filling, sorted, and their monomial, from one
    kernel pass (:func:`core._boxes`), computed once for any format."""
    return {"pairs": sorted(core._pairs(boxes)), "monomial": Monomial(core._exponents(n, boxes))}


def _json_record(record: dict) -> dict:
    """The record as JSON; its sorted pair tuples serialize as they are."""
    return {key: value if key == "pairs" else value.to_json() for key, value in record.items()}


def _pair_text(pairs: list[tuple[int, int]]) -> str:
    return ",".join(f"({a},{b})" for a, b in pairs) or "-"


def cmd_fillings(args) -> int:
    h = HessenbergFunction(args.h)
    fillings = core.enumerate_fillings(h, args.mu, max_n=args.max_n)
    # enumerate_fillings yields permissible fillings only: their boxes need no check
    records = (
        {"filling": f, **_phi_record(h.n, core._boxes(h.values, f.shape, f.word))}
        for f in fillings
    )
    return _print(
        args,
        lambda: [_json_record(r) for r in records],
        lambda: (f"{r['filling']}\t{_pair_text(r['pairs'])}\t{r['monomial']}" for r in records),
    )


def _poincare(betti: tuple[int, ...]) -> str:
    """The Poincare polynomial sum b_2k t^(2k), zero terms left out."""
    terms = [
        str(b) if k == 0 else f"t^{2 * k}" if b == 1 else f"{b}*t^{2 * k}"
        for k, b in enumerate(betti)
        if b
    ]
    return " + ".join(terms) or "0"


def cmd_betti(args) -> int:
    h = HessenbergFunction(args.h)
    betti = core.betti_numbers(h, args.mu, max_n=args.max_n)
    return _print(
        args,
        lambda: {"betti": list(betti)},
        lambda: [",".join(map(str, betti)), _poincare(betti)],
    )


# tree kind -> (the option it takes, its builder); the builders are looked up
# when called, so a patched or traced library function is the one that runs
TREE_KINDS = {
    "gp": ("mu", lambda mu, cap: springer.build_gp_tree(mu, cap)),
    "modified-gp": ("mu", lambda mu, cap: springer.build_modified_gp_tree(mu, cap)),
    "h": ("h", lambda h, cap: regnilp.build_h_tree(HessenbergFunction(h), cap)),
    "h-tableau": ("h", lambda h, cap: regnilp.build_h_tableau_tree(HessenbergFunction(h), cap)),
}


def cmd_tree(args) -> int:
    option, build = TREE_KINDS[args.kind]
    if (value := getattr(args, option)) is None:
        raise ValueError(f"--kind {args.kind} requires --{option}")
    tree = build(value, args.max_n)
    try:
        return _print(args, tree.to_json, lambda: [tree.to_dot().removesuffix("\n")])
    except RecursionError:  # json nests two containers per level, a frame each
        raise SizeLimitExceeded(
            f"JSON of a tree of depth {len(tree.level_keys)} nests too deeply to encode"
        ) from None


def cmd_ideal(args) -> int:
    h = HessenbergFunction(args.h)
    core._check_cap(h.n, args.max_n, "ideal generation")
    generators = polyalg.jh_generators(h)
    return _print(args, lambda: [g.to_json() for g in generators], lambda: generators)


def cmd_basis(args) -> int:
    if args.h is not None:
        h = HessenbergFunction(args.h)
        core._check_cap(h.n, args.max_n, "basis enumeration")
        basis = regnilp.b_h_basis(h)
    else:
        basis = springer.garsia_procesi_basis(args.mu, max_n=args.max_n)
    ordered = sorted(basis)
    return _print(args, lambda: [m.to_json() for m in ordered], lambda: ordered)


def cmd_phi(args) -> int:
    h = HessenbergFunction(args.h)
    filling = Filling.from_word(args.mu, _parse_word(args.filling, args.mu))
    record = _phi_record(h.n, core._checked_boxes(h, filling))
    return _print(
        args,
        lambda: _json_record(record),
        lambda: ["pairs: " + _pair_text(record["pairs"]), record["monomial"]],
    )


def cmd_psi(args) -> int:
    monomial = Monomial.parse(args.monomial, sum(args.mu))
    filling = springer.psi(args.mu, monomial)
    return _print(args, filling.to_json, lambda: [filling])


def cmd_psih(args) -> int:
    h = HessenbergFunction(args.h)
    filling = regnilp.psi_h(h, Monomial.parse(args.monomial, h.n))
    return _print(args, filling.to_json, lambda: [filling])


def _verify_record(h: HessenbergFunction, max_n: int | None) -> dict:
    report = regnilp.verify_counts(h, max_n=max_n)
    return {**vars(report), "h": list(h.values), "ok": report.ok()}


def cmd_verify(args) -> int:
    if args.h is not None:
        h = HessenbergFunction(args.h)
        record = _verify_record(h, args.max_n)
        keys = ("fillings", "leaves", "prod_nu", "prod_beta", "a_equals_b")
        return _print(
            args,
            lambda: record,
            lambda: [
                f"h={h}",
                *(f"{key}: {json.dumps(record[key])}" for key in keys),
                "OK" if record["ok"] else "FAIL",
            ],
        )
    n = args.all_n
    core._check_cap(n, args.max_n, "identity sweep")
    checked = words = 0
    failures = []
    for h in core.hessenberg_functions(n):
        checked += 1
        record = _verify_record(h, args.max_n)
        words += record["fillings"]
        multisets_equal = sorted(core.nu_tuple(h)) == sorted(core.degree_tuple(h))
        if not (record["ok"] and multisets_equal):
            failures.append(record)
    # a closed form for the whole sweep: all one-row words number (2n-1)!!
    if words != (expected := prod(range(1, 2 * n, 2))):
        failures.append({"word_total": words, "expected": expected})
    return _print(
        args,
        lambda: {"checked": checked, "failures": failures},
        lambda: [
            *(
                f"FAIL word total {words}, expected (2n-1)!! = {expected}"
                if "word_total" in record
                else f"FAIL {json.dumps(record, sort_keys=True)}"
                for record in failures
            ),
            f"{checked} functions checked, {len(failures)} failures",
        ],
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hesskit",
        description="Filling combinatorics and polynomial algebra "
        "for Hessenberg and Springer varieties.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, func, formats=("plain", "json"), capped=True):
        p.add_argument("--format", choices=formats, default=formats[0])
        if capped:
            p.add_argument("--max-n", type=_positive_int, help="override the size cap")
        p.set_defaults(func=func)

    p = sub.add_parser("fillings", help="list permissible fillings with pairs and monomials")
    p.add_argument("--h", type=int_list, required=True, help="Hessenberg values, e.g. 1,3,3")
    p.add_argument("--mu", type=int_list, required=True, help="shape row lengths, e.g. 2,1")
    common(p, cmd_fillings)

    p = sub.add_parser("betti", help="even Betti numbers from filling counts")
    p.add_argument("--h", type=int_list, required=True)
    p.add_argument("--mu", type=int_list, required=True)
    common(p, cmd_betti)

    p = sub.add_parser("tree", help="serialize one of the four tree constructions")
    p.add_argument("--kind", required=True, choices=TREE_KINDS)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--h", type=int_list)
    mode.add_argument("--mu", type=int_list)
    common(p, cmd_tree, formats=("dot", "json"))

    p = sub.add_parser("ideal", help="generators of the ideal attached to h")
    p.add_argument("--h", type=int_list, required=True)
    common(p, cmd_ideal)

    p = sub.add_parser("basis", help="monomial basis (staircase for --h, tree leaves for --mu)")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--h", type=int_list)
    mode.add_argument("--mu", type=int_list)
    common(p, cmd_basis)

    p = sub.add_parser("phi", help="dimension pairs and monomial image of a filling")
    p.add_argument("--h", type=int_list, required=True)
    p.add_argument("--mu", type=int_list, required=True)
    p.add_argument("--filling", required=True, help="row-reading word, e.g. 3214 or 2,4/1,3")
    common(p, cmd_phi, capped=False)

    p = sub.add_parser("psi", help="filling for a basis monomial (minimal h)")
    p.add_argument("--mu", type=int_list, required=True)
    p.add_argument("--monomial", required=True, help="e.g. x3*x4^2")
    common(p, cmd_psi, capped=False)

    p = sub.add_parser("psih", help="one-row filling for a staircase basis monomial")
    p.add_argument("--h", type=int_list, required=True)
    p.add_argument("--monomial", required=True)
    common(p, cmd_psih, capped=False)

    p = sub.add_parser("verify", help="check the counting identities")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--h", type=int_list)
    mode.add_argument("--all-n", type=_positive_int)
    common(p, cmd_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built on its first call and kept for the
    process: ``parse_args`` reads argv into a fresh namespace each time and
    leaves the parser as it was, so repeated in-process calls share one."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:  # Python's signal docs on SIGPIPE: no second raise at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED
    except ValueError as exc:  # the typed input errors are ValueErrors too
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, SizeLimitExceeded):
            return EXIT_CAP
        return EXIT_NOT_IN_BASIS if isinstance(exc, NotInBasis) else EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
