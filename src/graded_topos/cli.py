"""Command-line surface.

Verbs: check space|frame|system, functor ext|j|fm|s, adjunction-test
j-ext|fm-s, spatiality, eval, consequence, theorem2, suite. Exit codes:
0 pass, 1 violation found, 2 input error, 3 internal error. An input error
includes an input beyond a budget: a topology closure beyond
`spaces.DEFAULT_CLOSURE_CAP` opens, a hom enumeration that tries more than
`functors.HOM_SEARCH_CAP` partial maps, a formula beyond `MAX_STEPS` steps,
or a frame built in memory of more than 16 elements to write (`functor j`),
whose file would hold the join of every subset. An internal error is any
other exception; it prints one line, and its traceback only under
`--debug`. Every check is exact at every size, so each report names the
regime "exhaustive".

The parser is built once per process; each call parses into a fresh
namespace, so no option value carries over from one call to the next.
"""

from __future__ import annotations

import argparse
import functools
import sys
import traceback

from .errors import GradedToposError
from .functors import (
    GradeSet,
    check_triangle_identities,
    ext_object,
    fm_object,
    j_object,
    s_object,
    violation_of,
)
from .generators import GeneratorConfig
from .grades import format_grade, grade
from .logic.semantics import Assignment, sat_grade, sequent_grade, theorem2_suite
from .logic.parser import parse_formula, symbol_index
from .reports import Report, emit_reports
from .serialization import (
    load_formulas,
    load_frame,
    load_interpretation,
    load_space,
    load_system,
    save_frame,
    save_space,
    save_system,
)
from .suites import SUITE_NAMES, run_suite
from .systems import check_spatial


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="graded-topos",
                                     description="exact checkers for graded frames, "
                                                 "fuzzy topological spaces/systems and "
                                                 "fuzzy geometric logic")
    parser.add_argument("--debug", action="store_true",
                        help="print the traceback of an internal error")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="validate a structure file against its axioms")
    check.add_argument("kind", choices=["space", "frame", "system"])
    check.add_argument("file")

    functor = sub.add_parser("functor", help="apply a functor to a structure file")
    functor.add_argument("name", choices=["ext", "j", "fm", "s"])
    functor.add_argument("--in", dest="infile", required=True)
    functor.add_argument("--grades", help="comma-separated grade set for the hom functor")
    functor.add_argument("--out", dest="outfile", required=True)

    adj = sub.add_parser("adjunction-test", help="run the triangle identities on an instance")
    adj.add_argument("pair", choices=["j-ext", "fm-s"])
    adj.add_argument("--in", dest="infile", required=True)
    adj.add_argument("--grades")

    spatial = sub.add_parser("spatiality", help="test whether a system is spatial")
    spatial.add_argument("file")

    ev = sub.add_parser("eval", help="grade of satisfaction of a formula")
    ev.add_argument("--interp", required=True)
    ev.add_argument("--formula", required=True)
    ev.add_argument("--assign", default="", help="x1=d1,x2=d2,...")

    cons = sub.add_parser("consequence", help="grade of a sequent")
    cons.add_argument("--interp", required=True)
    cons.add_argument("--lhs", required=True)
    cons.add_argument("--rhs", required=True)

    thm = sub.add_parser("theorem2", help="run the graded-sequent property suite")
    thm.add_argument("--interp", required=True)
    thm.add_argument("--pool", required=True)

    suite = sub.add_parser("suite", help="run a named invariant suite")
    suite.add_argument("name", choices=list(SUITE_NAMES))
    suite.add_argument("--seed", type=int, default=0)
    suite.add_argument("--instances", type=int, default=None)
    return parser


def _parse_grade_set(text: str | None) -> GradeSet | None:
    if not text:
        return None
    return GradeSet.closure(grade(part) for part in text.split(","))


def _parse_assignment(text: str) -> Assignment:
    values = {}
    if text:
        for part in text.split(","):
            name, _, element = part.partition("=")
            name = name.strip()
            index = symbol_index(name) if name.startswith("x") else None
            if index is None or not element:
                raise GradedToposError(f"bad assignment entry {part!r}")
            values[index] = element.strip()
    return Assignment(values)


def _cmd_check(args) -> int:
    load = {"space": load_space, "frame": load_frame, "system": load_system}[args.kind]
    bad = violation_of(load(args.file))
    return emit_reports([Report.verdict(f"check/{args.kind}", bad and (bad.clause, "holds", bad.witness))])


def _cmd_functor(args) -> int:
    values = _parse_grade_set(args.grades)
    if args.name == "ext":
        save_space(ext_object(load_system(args.infile)), args.outfile)
    elif args.name == "j":
        save_system(j_object(load_space(args.infile)), args.outfile)
    elif args.name == "fm":
        save_frame(fm_object(load_system(args.infile)), args.outfile)
    else:
        frame = load_frame(args.infile)
        save_system(s_object(frame, values or GradeSet.for_frame(frame)), args.outfile)
    return 0


def _cmd_adjunction(args) -> int:
    values = _parse_grade_set(args.grades)
    instance = (load_space if args.pair == "j-ext" else load_frame)(args.infile)
    bad = violation_of(instance)
    if bad is not None:
        print(str(bad), file=sys.stderr)
        return 2
    laws = check_triangle_identities(args.pair, instance, values)
    return emit_reports([
        Report.verdict(f"adjunction-test/{law.name}",
                       None if law.ok else (law.name, "identity", law.detail or "differs"))
        for law in laws])


def _cmd_spatiality(args) -> int:
    system = load_system(args.file)
    bad = violation_of(system)
    if bad is not None:
        print(str(bad), file=sys.stderr)
        return 2
    spatial, pair = check_spatial(system)
    return emit_reports([Report.verdict(
        "spatiality",
        None if spatial else ("indistinguishable pair", "separated", f"{pair[0]!r}, {pair[1]!r}"))])


def _cmd_eval(args) -> int:
    interp = load_interpretation(args.interp)
    formula = parse_formula(args.formula, interp.signature())
    value = sat_grade(interp, _parse_assignment(args.assign), formula)
    print(format_grade(value))
    return 0


def _cmd_consequence(args) -> int:
    interp = load_interpretation(args.interp)
    sig = interp.signature()
    value = sequent_grade(interp, parse_formula(args.lhs, sig), parse_formula(args.rhs, sig))
    print(format_grade(value))
    return 0


def _cmd_theorem2(args) -> int:
    interp = load_interpretation(args.interp)
    pool = load_formulas(args.pool, interp.signature())
    return emit_reports([
        Report.verdict(f"theorem2/{law.name}",
                       None if law.ok else ("pool", "clause holds", law.detail or "violated"))
        for law in theorem2_suite(interp, pool)])


def _cmd_suite(args) -> int:
    cfg = GeneratorConfig(seed=args.seed)
    return emit_reports(run_suite(args.name, cfg, args.instances))


_HANDLERS = {
    "check": _cmd_check,
    "functor": _cmd_functor,
    "adjunction-test": _cmd_adjunction,
    "spatiality": _cmd_spatiality,
    "eval": _cmd_eval,
    "consequence": _cmd_consequence,
    "theorem2": _cmd_theorem2,
    "suite": _cmd_suite,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except GradedToposError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault of the program, never a verdict
        if args.debug:
            traceback.print_exc()
        message = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
