"""The ``wblow`` command line: every operation behind the text grammars.

Exit codes: 0 for success or a positive verdict, 1 for a negative
mathematical verdict with a witness (not conilpotent, invalid invariant,
...), 2 for usage or parse errors, 3 for indeterminate results, exhausted
budgets or refusals.  Machine mode (``--machine``) prints one JSON document
with rationals as "p/q" strings and infinities as "inf"; its bytes are
deterministic for identical inputs.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .ring import ParseError, Poly, format_ext, parse_poly, parse_rational, tokenize
from .polyvector import Polyvector, jacobian_poisson, parse_polyvector, schouten
from .centre import parse_centre
from .blowup import (
    check_centre,
    check_lift,
    pullback_function,
    pullback_polyvector,
    strict_transform_in_chart,
)
from .invariant import (
    InvariantSeq,
    UNCHECKED,
    VALID,
    max_monomial_centre,
    plane_curve_invariant,
    validate_invariant,
)
from .classify import (
    DEFAULT_DEGREE_BOUND,
    INDETERMINATE,
    classify_surface,
    milnor_number,
    verify_normal_form,
)
from .resolve import (
    RefusalError,
    StepAbort,
    count_blowups,
    resolution_is_complete,
    resolve_plane_curve,
    select_centre_31,
    select_centre_32,
)
from .corpus import CORPORA, run_corpus

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_INDETERMINATE = 3

# upper limits of the work flags: `milnor --bound 40` takes under 1 s on a
# sparse germ that has not stabilised by then (A59, D51), and about 5 s on
# the dense non-isolated germ (x - 4*y + 5*z)^2*(3*x + y - 7*z) +
# (2*x + 3*y + z)^5, whose singular line no catalogue direction certifies
MAX_DEGREE_BOUND = 40
MAX_RESOLVE_STEPS = 64
# longest --a-coefficients or --b-coefficients list of verify-normal-form:
# two lists of 12 take under 1 s, but the series grows with every entry
# (45 entries of --b-coefficients take about 10 s)
MAX_COEFFICIENTS = 12


def _emit(report: dict, human_lines: Sequence[str], machine: bool) -> None:
    if machine:
        sys.stdout.write(json.dumps(report, sort_keys=True, separators=(",", ":")))
        sys.stdout.write("\n")
    else:
        for line in human_lines:
            print(line)


Tokens = Optional[List[Tuple[str, str, int]]]


def _variables_for(args, *expressions: str) -> Tuple[Tuple[str, ...], List[Tokens]]:
    """The chart variables, and the tokens of each expression for its parser
    (None where the names came from --centre or --vars, or the text is empty)."""
    if getattr(args, "centre", None):
        return tuple(parse_centre(args.centre).variables), [None] * len(expressions)
    if getattr(args, "vars", None):
        return (tuple(v.strip() for v in args.vars.split(",") if v.strip()),
                [None] * len(expressions))
    names: List[str] = []
    tokens: List[Tokens] = []
    for text in expressions:
        if not text:
            tokens.append(None)
            continue
        tokens.append(tokenize(text))
        for kind, value, _ in tokens[-1]:
            if kind == "name" and value not in names:
                names.append(value)
    return tuple(sorted(names)), tokens


def _parse_any(text: str, variables: Sequence[str]):
    """A polynomial or a polyvector, depending on the presence of '@'."""
    if "@" in text:
        return parse_polyvector(text, variables)
    return parse_poly(text, variables)


def _parse_bivector(text: str, variables: Sequence[str],
                    tokens: Tokens = None) -> Polyvector:
    """``--sigma``: a zero of any degree, such as ``0``, is the zero bivector."""
    sigma = parse_polyvector(text, variables, tokens)
    return Polyvector.zero(2, variables) if sigma.is_zero() else sigma


def _with_cap(value, cap: Optional[int]):
    if cap is None:
        return value
    if isinstance(value, Poly):
        return value.with_cap(cap)
    return value.map_coefficients(lambda c: c.with_cap(cap))


def _count_up_to(limit: int):
    """An argparse type: an integer from 0 to ``limit``."""
    def count(text: str) -> int:
        value = int(text)
        if not 0 <= value <= limit:
            raise argparse.ArgumentTypeError(f"{value} is not between 0 and {limit}")
        return value
    return count


# built on the first call, not at import, then reused: parse_args returns a fresh Namespace
@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wblow",
        description="Exact weighted-blowup calculus for Poisson structures "
                    "on affine charts")
    parser.add_argument("--machine", action="store_true",
                        help="emit one deterministic JSON document")
    subs = parser.add_subparsers(dest="command", required=True)

    def add(name: str, *, centre: bool = False, sigma: bool = False,
            expr: Optional[str] = None, cap: bool = False, vars_flag: bool = True):
        sub = subs.add_parser(name)
        if centre:
            sub.add_argument("--centre", required=True,
                             help="centre syntax: 'x:2 y:3 z:inf [@ (p1,p2,p3)]'")
        if sigma:
            sub.add_argument("--sigma", required=True,
                             help="bivector syntax: '2*x*@y^@z - y^2*@x^@y'")
        if expr:
            sub.add_argument("expression", help=expr)
        if cap:
            sub.add_argument("--cap", type=int, default=None,
                             help="truncation: work modulo total degree >= N")
        if vars_flag:
            sub.add_argument("--vars", default=None,
                             help="comma-separated chart variables (else inferred)")
        return sub

    add("order", centre=True, expr="polynomial or polyvector", cap=True)
    add("lt", centre=True, expr="polynomial or polyvector", cap=True)
    schouten_parser = add("schouten", expr="first polyvector", cap=True)
    schouten_parser.add_argument("other", help="second polyvector")
    add("jacobian", expr="potential polynomial in three variables", cap=True)
    add("check-centre", centre=True, sigma=True, cap=True)
    add("lift", centre=True, sigma=True, cap=True)
    blowup_parser = add("blowup", centre=True, expr="polynomial or polyvector", cap=True)
    blowup_parser.add_argument("--slice", default=None,
                               help="slice-chart variable for a strict transform")
    add("invariant", expr="polynomial vanishing at the origin")
    add("validate-invariant", expr="comma list, e.g. '2,3,4.5'", vars_flag=False)
    add("classify", expr="surface equation in three variables")
    milnor_parser = add("milnor", expr="polynomial vanishing at the origin")
    milnor_parser.add_argument("--bound", type=_count_up_to(MAX_DEGREE_BOUND),
                               default=DEFAULT_DEGREE_BOUND)
    resolve_parser = add("resolve-curve", expr="squarefree plane-curve equation")
    resolve_parser.add_argument("--max-steps", type=_count_up_to(MAX_RESOLVE_STEPS),
                                default=6)
    select_parser = add("select-centre", sigma=True)
    select_parser.add_argument("--curve", action="append", default=[],
                               help="curve generator (repeat for a pair); "
                                    "selects the (3,1) driver")
    select_parser.add_argument("--surface", default=None,
                               help="surface equation; selects the (3,2) driver")
    nf = subs.add_parser("verify-normal-form")
    nf.add_argument("kind", choices=["split_log", "heisenberg_pencil",
                                     "whitney_family", "duval_family"])
    nf.add_argument("--cap", type=int, default=9)
    nf.add_argument("--k", type=int, default=1)
    nf.add_argument("--lam", default="0")
    nf.add_argument("--f", default=None, help="pencil parameter f(y,z)")
    nf.add_argument("--a-coefficients", default="",
                    help="comma list: A = a1*f + a2*f^2 + ...")
    nf.add_argument("--b-coefficients", default="")
    nf.add_argument("--family", default="A", choices=list("AD") + ["E6", "E7", "E8"])
    nf.add_argument("--n", type=int, default=1)
    nf.add_argument("--unit", default=None)
    corpus_parser = subs.add_parser("corpus")
    corpus_parser.add_argument("name", choices=sorted(CORPORA))
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as stop:
        return EXIT_USAGE if stop.code not in (0, None) else EXIT_OK

    try:
        return _dispatch(args)
    except (ParseError, ValueError) as error:
        if isinstance(error, RefusalError):
            print(f"refused: {error}", file=sys.stderr)
            return EXIT_INDETERMINATE
        print(f"error: {error}", file=sys.stderr)
        return EXIT_USAGE
    except StepAbort as error:
        print(f"certificate failed: {error}", file=sys.stderr)
        return EXIT_NEGATIVE


def _dispatch(args) -> int:
    machine = args.machine
    command = args.command

    if command == "order":
        centre = parse_centre(args.centre)
        value = _with_cap(_parse_any(args.expression, centre.variables), args.cap)
        order = centre.ord(value)
        _emit({"command": "order", "order": format_ext(order)},
              [format_ext(order)], machine)
        return EXIT_OK

    if command == "lt":
        centre = parse_centre(args.centre)
        value = _with_cap(_parse_any(args.expression, centre.variables), args.cap)
        lead = centre.leading_term(value)
        _emit({"command": "lt", "leading_term": str(lead),
               "order": format_ext(centre.ord(value))},
              [str(lead)], machine)
        return EXIT_OK

    if command == "schouten":
        variables, (left_tokens, right_tokens) = _variables_for(args, args.expression,
                                                                args.other)
        left = _with_cap(parse_polyvector(args.expression, variables, left_tokens), args.cap)
        right = _with_cap(parse_polyvector(args.other, variables, right_tokens), args.cap)
        bracket = schouten(left, right)
        _emit({"command": "schouten", "bracket": str(bracket),
               "zero": bracket.is_zero()}, [str(bracket)], machine)
        return EXIT_OK

    if command == "jacobian":
        variables, (tokens,) = _variables_for(args, args.expression)
        if len(variables) != 3:
            variables = tuple(sorted(set(variables) | {"x", "y", "z"}))[:3]
        f = _with_cap(parse_poly(args.expression, variables, tokens), args.cap)
        sigma = jacobian_poisson(f)
        _emit({"command": "jacobian", "sigma": str(sigma)}, [str(sigma)], machine)
        return EXIT_OK

    if command == "check-centre":
        centre = parse_centre(args.centre)
        sigma = _with_cap(_parse_bivector(args.sigma, centre.variables), args.cap)
        report = check_centre(sigma, centre)
        lines = [f"poisson: {report.poisson}",
                 f"codegenerate: {report.codegenerate}",
                 f"conilpotent: {report.conilpotent}",
                 f"order: {format_ext(report.order)}"]
        for witness in report.witnesses:
            lines.append(f"  witness {witness.to_dict()}")
        _emit({"command": "check-centre", **report.to_dict()}, lines, machine)
        return EXIT_OK if report.conilpotent else EXIT_NEGATIVE

    if command == "lift":
        centre = parse_centre(args.centre)
        xi = _with_cap(_parse_any(args.sigma, centre.variables), args.cap)
        xi_pv = Polyvector.from_poly(xi) if isinstance(xi, Poly) else xi
        report = check_lift(xi_pv, centre)
        lines = [f"lifts: {report.lift_ok}",
                 f"order: {format_ext(report.order)}",
                 f"exceptional_tangent: {report.exceptional_tangent}"]
        _emit({"command": "lift", **report.to_dict()}, lines, machine)
        return EXIT_OK if report.lift_ok else EXIT_NEGATIVE

    if command == "blowup":
        centre = parse_centre(args.centre)
        value = _with_cap(_parse_any(args.expression, centre.variables), args.cap)
        if isinstance(value, Poly):
            if args.slice:
                transform = strict_transform_in_chart(value, centre, args.slice)
                _emit({"command": "blowup", "chart": args.slice,
                       "strict_transform": str(transform)},
                      [str(transform)], machine)
                return EXIT_OK
            result = pullback_function(value, centre)
        elif args.slice:
            raise ValueError("--slice takes the strict transform of a polynomial, "
                             "not of a polyvector")
        else:
            result = pullback_polyvector(value, centre)
        report = {"command": "blowup",
                  "min_t_exponent": result.min_t_exponent,
                  "regular": result.regular,
                  "exceptional_tangent": result.exceptional_tangent,
                  "proper_part": str(result.proper_part),
                  "variables": list(result.variables)}
        lines = [f"min t-exponent: {result.min_t_exponent}",
                 f"regular: {result.regular}",
                 f"proper part: {result.proper_part}"]
        _emit(report, lines, machine)
        return EXIT_OK if result.regular else EXIT_NEGATIVE

    if command == "invariant":
        variables, (tokens,) = _variables_for(args, args.expression)
        f = parse_poly(args.expression, variables, tokens)
        if len(variables) == 2:
            plane = plane_curve_invariant(f)
            report = {"command": "invariant", "invariant": str(plane.invariant),
                      "exact": plane.exact, "preparation": plane.preparation.lines()}
            lines = [f"invariant: ({plane.invariant})"
                     + ("" if plane.exact else "  [certified lower bound]")]
            _emit(report, lines, machine)
            return EXIT_OK
        result = max_monomial_centre(f)
        report = {"command": "invariant", "invariant": str(result.invariant),
                  "centre": str(result.centre),
                  "lower_bound_only": result.lower_bound_only,
                  "warning": result.warning}
        lines = [f"invariant: ({result.invariant})  centre[{result.centre}]"]
        if result.warning:
            lines.append(f"warning: {result.warning}")
        _emit(report, lines, machine)
        return EXIT_OK

    if command == "validate-invariant":
        sequence = validate_invariant(InvariantSeq.parse(args.expression))
        report = {"command": "validate-invariant", "entries": str(sequence),
                  "status": sequence.status, "witness": sequence.witness}
        lines = [sequence.status if sequence.witness is None
                 else f"{sequence.status} at prefix {sequence.witness}"]
        _emit(report, lines, machine)
        if sequence.status == UNCHECKED:
            return EXIT_INDETERMINATE
        return EXIT_OK if sequence.status == VALID else EXIT_NEGATIVE

    if command == "classify":
        variables, (tokens,) = _variables_for(args, args.expression)
        if len(variables) != 3:
            variables = ("x", "y", "z")
        f = parse_poly(args.expression, variables, tokens)
        result = classify_surface(f)
        report = {"command": "classify", "class": result.label(),
                  "invariant": None if result.invariant is None
                  else str(result.invariant),
                  "milnor": result.milnor,
                  "witness_centre": None if result.witness_centre is None
                  else str(result.witness_centre),
                  "preparation": result.preparation.lines(),
                  "certification_bound": DEFAULT_DEGREE_BOUND,
                  "diagnostics": result.diagnostics}
        line = result.label()
        if result.invariant is not None:
            line += f" invariant=({result.invariant})"
        if result.preparation.steps:
            line += f"  preparation: {result.preparation}"
        _emit(report, [line], machine)
        if result.kind != "other":
            return EXIT_OK
        return EXIT_INDETERMINATE if result.milnor == INDETERMINATE else EXIT_NEGATIVE

    if command == "milnor":
        variables, (tokens,) = _variables_for(args, args.expression)
        f = parse_poly(args.expression, variables, tokens)
        mu = milnor_number(f, args.bound)
        _emit({"command": "milnor", "milnor": mu}, [str(mu)], machine)
        if isinstance(mu, int):
            return EXIT_OK
        return EXIT_INDETERMINATE if mu == INDETERMINATE else EXIT_NEGATIVE

    if command == "resolve-curve":
        variables, (tokens,) = _variables_for(args, args.expression)
        f = parse_poly(args.expression, variables, tokens)
        tree = resolve_plane_curve(f, args.max_steps)
        complete = resolution_is_complete(tree)
        blowups = count_blowups(tree)
        # each form prints every chart equation: build only the one printed
        if machine:
            _emit({"command": "resolve-curve", "complete": complete,
                   "blowups": blowups, "tree": tree.to_dict()}, [], machine)
        else:
            _emit({}, [tree.render(), f"complete: {complete}  blowups: {blowups}"],
                  machine)
        # an incomplete tree has an uncertain search or an exhausted step
        # budget at a leaf: neither is a witness of a negative verdict
        return EXIT_OK if complete else EXIT_INDETERMINATE

    if command == "select-centre":
        if bool(args.curve) == bool(args.surface):
            raise ValueError("pass either --curve generators or --surface")
        variables, (sigma_tokens, *tokens) = _variables_for(
            args, args.sigma, *([args.surface] if args.surface else args.curve))
        if len(variables) != 3:
            variables = ("x", "y", "z")
        sigma = _parse_bivector(args.sigma, variables, sigma_tokens)
        if args.surface:
            selection = select_centre_32(sigma, parse_poly(args.surface, variables, tokens[0]))
        else:
            generators = [parse_poly(g, variables, curve_tokens)
                          for g, curve_tokens in zip(args.curve, tokens)]
            selection = select_centre_31(sigma, generators)
        # a terminal point has no centre, hence no certificate and no conilpotency verdict
        certificate = selection.certificate
        conilpotent = None if certificate is None else certificate.centre_report.conilpotent
        report = {"command": "select-centre",
                  "selections": [{
                      "case": selection.case,
                      "centre": None if selection.centre is None else str(selection.centre),
                      "conilpotent": conilpotent,
                      "coordinate_change": selection.coordinate_change.lines(),
                      "rationale": selection.rationale}]}
        line = (f"{selection.case}: no centre" if selection.centre is None
                else f"{selection.case}: centre[{selection.centre}]  conilpotent={conilpotent}")
        if selection.coordinate_change.steps:
            line += f"  coordinate_change: {selection.coordinate_change}"
        _emit(report, [line], machine)
        return EXIT_OK

    if command == "verify-normal-form":
        if args.kind == "split_log":
            params = {"k": args.k, "lam": parse_rational(args.lam)}
        elif args.kind == "heisenberg_pencil":
            if not args.f:
                raise ValueError("heisenberg_pencil requires --f")
            params = {"f": parse_poly(args.f, ("x", "y", "z")),
                      "a_coefficients": _coeff_list(args.a_coefficients),
                      "b_coefficients": _coeff_list(args.b_coefficients)}
        elif args.kind == "whitney_family":
            params = {"a_coefficients": _coeff_list(args.a_coefficients)}
        else:
            unit = parse_poly(args.unit, ("x", "y", "z")) if args.unit else None
            params = {"family": args.family, "n": args.n, "unit": unit}
        result = verify_normal_form(args.kind, cap=args.cap, **params)
        report = {"command": "verify-normal-form", "kind": args.kind,
                  "ok": result.ok, "checks": result.checks, "notes": result.notes}
        lines = [f"{name}: {ok}" for name, ok in result.checks.items()]
        lines.append(f"verified: {result.ok}")
        _emit(report, lines + result.notes, machine)
        if result.ok:
            return EXIT_OK
        return EXIT_NEGATIVE if result.checks else EXIT_INDETERMINATE

    if command == "corpus":
        cases = run_corpus(CORPORA[args.name]())
        failures = [c for c in cases if not c[1]]
        report = {"command": "corpus", "name": args.name,
                  "total": len(cases), "failures": len(failures),
                  "cases": [{"name": n, "ok": ok, "detail": d}
                            for n, ok, d in cases]}
        lines = [f"{'PASS' if ok else 'FAIL'} {name}" + (f"  {d}" if d else "")
                 for name, ok, d in cases]
        lines.append(f"{len(cases) - len(failures)}/{len(cases)} passed")
        _emit(report, lines, machine)
        return EXIT_OK if not failures else EXIT_NEGATIVE

    raise ValueError(f"unknown command {command!r}")


def _coeff_list(text: str) -> List[Fraction]:
    if not text.strip():
        return []
    pieces = text.split(",")
    if len(pieces) > MAX_COEFFICIENTS:
        raise ValueError(f"{len(pieces)} coefficients exceed the limit {MAX_COEFFICIENTS}")
    return [parse_rational(piece) for piece in pieces]


if __name__ == "__main__":
    sys.exit(main())
