"""Command-line interface.

Exit codes are uniform across subcommands: 0 for an affirmative verdict
(consistent, satisfiable, subsumption holds, suite passed, model found,
translation written), 1 for a negative verdict, 2 for usage, parse, or sort
errors.  ``--format records`` switches to a stable line-oriented machine
format (schema ``kedl-report/1``) that excludes wall times, so identical
inputs yield byte-identical reports.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Optional

from .axioms import verify_suite
from .kb import Equivalence, Inclusion, KnowledgeBase
from .km import parse_km, render_kedl
from .oracle import (
    Bounds,
    Countermodel,
    Model,
    SatVerdict,
    check_validity_bounded,
    count_models,
    enumerate_interpretations,
    find_model,
)
from .parser import ParseError, parse_concept, parse_concept_with_inference, parse_kb, parse_signature
from .semantics import (
    FunctionalityMode,
    InternedConcepts,
    InternedFormulas,
    Interpretation,
    interpretation_to_text,
    satisfies_kb,
)
from .syntax import ConceptExpr, Iff, Implies, KedlError, Sort, Top, check_sort
from .tableau import InconsistentKBError, SatResult, Tableau, classify, instance_of, subsumes, trace_to_text

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_ERROR = 2


class _Report:
    def __init__(self, command: str) -> None:
        self.command = command
        self.fields: list[tuple[str, str]] = []
        self.payload: Optional[str] = None
        self.started = time.perf_counter()

    def add(self, key: str, value) -> None:
        self.fields.append((key, str(value)))

    def emit(self, fmt: str) -> None:
        if fmt == "records":
            print("kedl-report/1")
            print(f"command={self.command}")
            for key, value in self.fields:
                print(f"{key}={value}")
            if self.payload:
                print("payload:")
                sys.stdout.write(self.payload)
        else:
            for key, value in self.fields:
                print(f"{key}: {value}")
            if self.payload:
                sys.stdout.write(self.payload)
            print(f"time: {time.perf_counter() - self.started:.3f}s")


def _mode(value: str) -> FunctionalityMode:
    return {
        "at-most-one": FunctionalityMode.AT_MOST_ONE,
        "exactly-one": FunctionalityMode.EXACTLY_ONE,
        "free": FunctionalityMode.FREE,
    }[value]


def _bounds(text: Optional[str], mode: FunctionalityMode) -> Bounds:
    if text is None:
        text = os.environ.get("KEDL_BOUNDS", "2,2")
    try:
        d, s = (int(part) for part in text.split(","))
    except ValueError:
        raise KedlError(f"bad bounds {text!r}; expected D,S")
    if d < 1 or s < 1:
        raise KedlError(f"bad bounds {text!r}; domains are non-empty, so both must be at least 1")
    return Bounds(d, s, mode)


def _load_kb(path: str) -> KnowledgeBase:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_kb(handle.read())


def _concept_context(args) -> tuple[KnowledgeBase, ConceptExpr]:
    """Resolve the -c concept against a KB file, --sig text, or inference."""
    if args.kbfile is not None:
        kb = _load_kb(args.kbfile)
        return kb, parse_concept(args.concept, kb.sig)
    if getattr(args, "sig", None):
        sig = parse_signature(args.sig)
        return KnowledgeBase(sig=sig), parse_concept(args.concept, sig)
    expr, sig = parse_concept_with_inference(args.concept)
    return KnowledgeBase(sig=sig), expr


def _write_model(args, text: str) -> None:
    if getattr(args, "model_out", None):
        with open(args.model_out, "w", encoding="utf-8") as handle:
            handle.write(text)


def _sat_payload(result: SatResult) -> str:
    if result.satisfiable:
        return interpretation_to_text(result.witness)
    return trace_to_text(result.clash_trace)


# --- subcommands ----------------------------------------------------------------


def cmd_check(args) -> int:
    report = _Report("check")
    kb = _load_kb(args.kbfile)
    result = Tableau(kb, _mode(args.mode)).is_consistent()
    report.add("kb", args.kbfile)
    report.add("verdict", "consistent" if result.satisfiable else "inconsistent")
    for kept, dropped in result.merged_individuals:
        report.add("merged", f"{dropped} -> {kept}")
    report.payload = _sat_payload(result)
    if result.satisfiable:
        _write_model(args, report.payload)
    report.emit(args.format)
    return EXIT_OK if result.satisfiable else EXIT_NEGATIVE


def cmd_sat(args) -> int:
    report = _Report("sat")
    kb, expr = _concept_context(args)
    result = Tableau(kb, _mode(args.mode)).is_satisfiable(expr)
    report.add("concept", args.concept)
    report.add("verdict", "satisfiable" if result.satisfiable else "unsatisfiable")
    report.payload = _sat_payload(result)
    if result.satisfiable:
        _write_model(args, report.payload)
    report.emit(args.format)
    return EXIT_OK if result.satisfiable else EXIT_NEGATIVE


def cmd_subsumes(args) -> int:
    report = _Report("subsumes")
    kb = _load_kb(args.kbfile)
    sub = parse_concept(args.sub, kb.sig)
    sup = parse_concept(args.sup, kb.sig)
    holds = subsumes(kb, sub, sup, _mode(args.mode))
    report.add("sub", args.sub)
    report.add("sup", args.sup)
    report.add("verdict", "true" if holds else "false")
    report.emit(args.format)
    return EXIT_OK if holds else EXIT_NEGATIVE


def cmd_instance(args) -> int:
    report = _Report("instance")
    kb = _load_kb(args.kbfile)
    expr = parse_concept(args.concept, kb.sig)
    holds = instance_of(kb, args.individual, expr, _mode(args.mode))
    report.add("individual", args.individual)
    report.add("concept", args.concept)
    report.add("verdict", "true" if holds else "false")
    report.emit(args.format)
    return EXIT_OK if holds else EXIT_NEGATIVE


def cmd_classify(args) -> int:
    report = _Report("classify")
    kb = _load_kb(args.kbfile)
    try:
        result = classify(kb, _mode(args.mode))
    except InconsistentKBError as err:
        report.add("verdict", "inconsistent")
        report.add("error", str(err))
        report.emit(args.format)
        return EXIT_NEGATIVE
    lines = []
    for sort in (Sort.OBJECT, Sort.ATTRIBUTE):
        lines.append(f"{sort} cells:")
        reps = []
        for cell in result.cells[sort]:
            reps.append(cell[0])
            lines.append("  " + " = ".join(cell))
        for a in reps:
            parents = sorted(
                b for b in reps
                if a != b and (a, b) in result.leq[sort]
                and not any(
                    c != a and c != b and (a, c) in result.leq[sort] and (c, b) in result.leq[sort]
                    for c in reps
                )
            )
            for b in parents:
                lines.append(f"  {a} < {b}")
    report.add("verdict", "classified")
    report.payload = "\n".join(lines) + "\n"
    report.emit(args.format)
    return EXIT_OK


def cmd_verify(args) -> int:
    report = _Report("verify")
    bounds = _bounds(args.bounds, _mode(args.mode))
    checks = verify_suite(bounds=bounds, only=args.only)
    if not checks:
        report.add("error", f"no suite item matches {args.only!r}")
        report.emit(args.format)
        return EXIT_ERROR
    lines = []
    for c in checks:
        status = "pass" if c.ok else "FAIL"
        suffix = "" if args.format == "records" else f"  ({c.seconds:.3f}s)"
        lines.append(
            f"{c.item_id} [{c.sort}] tableau={'ok' if c.tableau_ok else 'FAIL'} "
            f"oracle={'ok' if c.oracle_ok else 'FAIL'} {status}{suffix}"
        )
    passed = sum(1 for c in checks if c.ok)
    report.add("bounds", f"{bounds.max_delta},{bounds.max_sigma}")
    report.add("checks", len(checks))
    report.add("passed", passed)
    report.payload = "\n".join(lines) + "\n"
    report.emit(args.format)
    return EXIT_OK if passed == len(checks) else EXIT_NEGATIVE


def _report_model(args, report: _Report, verdict: SatVerdict) -> int:
    """Emit a find-model verdict, with a found model as the payload."""
    if isinstance(verdict, Model):
        report.add("verdict", "model-found")
        report.payload = interpretation_to_text(verdict.interpretation)
        _write_model(args, report.payload)
        report.emit(args.format)
        return EXIT_OK
    report.add("verdict", "no-model-up-to-bound")
    report.emit(args.format)
    return EXIT_NEGATIVE


def _report_countermodel(args, report: _Report, countermodel: Optional[Interpretation], *fields) -> int:
    """Emit a validity verdict and then ``fields`` (key, value pairs),
    with a found countermodel as the payload."""
    if countermodel is None:
        report.add("verdict", "no-countermodel-up-to-bound")
    else:
        report.add("verdict", "countermodel-found")
        report.payload = interpretation_to_text(countermodel)
        _write_model(args, report.payload)
    for key, value in fields:
        report.add(key, value)
    report.emit(args.format)
    return EXIT_OK if countermodel is None else EXIT_NEGATIVE


def cmd_oracle(args) -> int:
    report = _Report("oracle")
    mode = _mode(args.mode)
    bounds = _bounds(args.bounds, mode)
    report.add("bounds", f"{bounds.max_delta},{bounds.max_sigma}")
    report.add("mode", str(mode))

    if args.concept is None:
        if not args.find_model or args.kbfile is None:
            raise KedlError("-c CONCEPT is required (or --find-model with a KB file)")
        verdict = find_model(_load_kb(args.kbfile), bounds)
        report.add("kb", args.kbfile)
        return _report_model(args, report, verdict)

    kb, expr = _concept_context(args)

    if args.count:
        n = count_models(expr, kb.sig, bounds, kb=kb)
        report.add("concept", args.concept)
        report.add("models", n)
        report.emit(args.format)
        return EXIT_OK

    if args.find_model:
        verdict = find_model(expr, bounds, kb=kb)
        report.add("concept", args.concept)
        return _report_model(args, report, verdict)

    # validity: a top-level arrow is read as a statement; anything else is
    # checked as "denotes the whole domain"; an arrow's sort is its sides'
    sort = check_sort(expr, kb.sig)
    if isinstance(expr, Implies):
        formula = Inclusion(expr.left, expr.right, sort)
    elif isinstance(expr, Iff):
        formula = Equivalence(expr.left, expr.right, sort)
    else:
        formula = Inclusion(Top(), expr, sort)
    report.add("formula", args.concept)
    if args.reading != "paper-existential":
        verdict = check_validity_bounded(formula, bounds, kb=kb)
        countermodel = verdict.interpretation if isinstance(verdict, Countermodel) else None
        return _report_countermodel(args, report, countermodel)
    # the paper-existential reading of the formula holds where expr has an
    # element: an arrow read as a concept holds where its conditional does,
    # and top <= expr has a witness exactly in expr
    claim, formulas = InternedConcepts([(expr, sort)]), InternedFormulas(kb.formulas(), kb.sig)
    countermodel = next(
        (i for i in enumerate_interpretations(kb.sig, bounds)
         if not next(claim.extensions(i)) and satisfies_kb(i, kb, formulas)),
        None,
    )
    return _report_countermodel(args, report, countermodel, ("reading", "paper-existential"))


def cmd_km_translate(args) -> int:
    report = _Report("km translate")
    with open(args.kmfile, "r", encoding="utf-8") as handle:
        elements = parse_km(handle.read())
    text = render_kedl(elements)
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(text)
    report.add("input", args.kmfile)
    report.add("output", args.out)
    report.add("elements", len(elements))
    report.emit(args.format)
    return EXIT_OK


# --- argument wiring --------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mode", choices=["at-most-one", "exactly-one", "free"],
                   default="at-most-one", help="cross-role functionality mode")
    p.add_argument("--format", choices=["human", "records"], default="human")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kedl",
        description="Reasoning toolkit for the two-sorted description logic KEDL",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide knowledge-base consistency")
    p.add_argument("kbfile")
    p.add_argument("--model-out", help="write the witness model to a file")
    _add_common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("sat", help="decide concept satisfiability")
    p.add_argument("kbfile", nargs="?", help="knowledge base (optional)")
    p.add_argument("-c", "--concept", required=True)
    p.add_argument("--sig", help="inline declarations when no KB file is given")
    p.add_argument("--model-out")
    _add_common(p)
    p.set_defaults(func=cmd_sat)

    p = sub.add_parser("subsumes", help="decide subsumption between two concepts")
    p.add_argument("kbfile")
    p.add_argument("-s", "--sub", required=True)
    p.add_argument("-t", "--sup", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_subsumes)

    p = sub.add_parser("instance", help="decide whether an individual is an instance")
    p.add_argument("kbfile")
    p.add_argument("-i", "--individual", required=True)
    p.add_argument("-c", "--concept", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_instance)

    p = sub.add_parser("classify", help="compute the subsumption orders")
    p.add_argument("kbfile")
    _add_common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("verify", help="run the axiom and property suite")
    p.add_argument("--only", help="run the item with this id and the items numbered below it "
                   "(property1 runs property1.1 and property1.2, not property10.1)")
    p.add_argument("--bounds", help="oracle bounds D,S (default 2,2 or KEDL_BOUNDS)")
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="bounded brute-force model finding")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--find-model", action="store_true")
    group.add_argument("--validity", action="store_true")
    group.add_argument("--count", action="store_true")
    p.add_argument("kbfile", nargs="?")
    p.add_argument("-c", "--concept")
    p.add_argument("--sig")
    p.add_argument("--bounds")
    p.add_argument("--reading", choices=["universal", "paper-existential"], default="universal")
    p.add_argument("--model-out")
    _add_common(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("km", help="knowledge-element tools")
    km_sub = p.add_subparsers(dest="km_command", required=True)
    t = km_sub.add_parser("translate", help="compile a .km file into a .kedl ontology")
    t.add_argument("kmfile")
    t.add_argument("-o", "--out", required=True)
    _add_common(t)
    t.set_defaults(func=cmd_km_translate)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_err:
        return EXIT_ERROR if exit_err.code not in (0, None) else 0
    try:
        code = args.func(args)
        # a reader that went away shows here, not in the flush at exit;
        # with no standard output at all, sys.stdout is None
        if sys.stdout is not None:
            sys.stdout.flush()
        return code
    except BrokenPipeError:
        # as the Python docs advise: what is left of the output goes to
        # devnull, so the flush at interpreter exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: standard output was closed before the report was written", file=sys.stderr)
        return EXIT_ERROR
    except (OSError, UnicodeDecodeError, ParseError, KedlError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ERROR
    except RecursionError:
        # exit 1 is a negative verdict, never a crash
        print("error: input nested too deeply (Python recursion limit exceeded)", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
