"""Bundled regression corpora: the worked examples wired into named suites.

Each corpus is a list of (name, thunk) pairs; a thunk returns (ok, detail).
The runner evaluates the thunks and reports results in suite order.  The
CLI ``corpus`` subcommand exits nonzero on any mismatch; the acceptance tests
reuse the same case lists.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Callable, Dict, List, Sequence, Tuple

from .ring import INF, Poly, parse_poly
from .polyvector import (
    ABELIAN,
    HEISENBERG,
    SPLIT_NONABELIAN,
    Polyvector,
    jacobian_poisson,
    linearize,
    parse_polyvector,
)
from .centre import Centre, parse_centre
from .blowup import check_centre, check_lift, pullback_polyvector
from .invariant import (
    InvariantSeq,
    VALID,
    max_monomial_centre,
    validate_invariant,
)
from .classify import DUVAL_EQUATIONS, classify_surface, detect_duval_point, milnor_number
from .resolve import (
    count_blowups,
    resolution_is_complete,
    resolve_plane_curve,
    select_centre_32,
)

Outcome = Tuple[bool, str]
Case = Tuple[str, Callable[[], Outcome]]
Result = Tuple[str, bool, str]
V3 = ("x", "y", "z")
F = Fraction


def run_corpus(cases: Sequence[Case]) -> List[Result]:
    """Evaluate the case thunks in suite order."""
    outcomes = [(name, thunk()) for name, thunk in cases]
    return [(name, bool(ok), detail) for name, (ok, detail) in outcomes]


def corpus_table_ade() -> List[Case]:
    rows = [
        ("normal crossings", "x*y", "2,2", F(1), None),
        ("whitney umbrella", "x^2 - y^2*z", "2,3,3", F(7, 6), None),
        ("A1", "x^2 + y^2 + z^2", "2,2,2", F(3, 2), 1),
        ("A2", "x^2 + y^2 + z^3", "2,2,3", F(4, 3), 2),
        ("A3", "x^2 + y^2 + z^4", "2,2,4", F(5, 4), 3),
        ("A4", "x^2 + y^2 + z^5", "2,2,5", F(6, 5), 4),
        ("A5", "x^2 + y^2 + z^6", "2,2,6", F(7, 6), 5),
        ("D4", "x^2 + y^2*z + z^3", "2,3,3", F(7, 6), 4),
        ("D5", "x^2 + y^2*z + z^4", "2,3,3", F(7, 6), 5),
        ("E6", "x^2 + y^3 + z^4", "2,3,4", F(13, 12), 6),
        ("E7", "x^2 + y^3 + y*z^3", "2,3,9/2", F(19, 18), 7),
        ("E8", "x^2 + y^3 + z^5", "2,3,5", F(31, 30), 8),
    ]

    def row_case(text, invariant_text, kappa3, milnor):
        def thunk() -> Outcome:
            f = parse_poly(text, V3)
            result = max_monomial_centre(f)
            got = str(result.invariant)
            ok = got == invariant_text and result.invariant.kappa(3) == kappa3
            detail = f"invariant {got}, kappa3 {result.invariant.kappa(3)}"
            if milnor is not None:
                mu = milnor_number(f)
                ok = ok and mu == milnor
                detail += f", milnor {mu}"
            return ok, detail
        return thunk

    cases: List[Case] = [(f"table-ade/{name}", row_case(text, inv, kappa, mu))
                         for name, text, inv, kappa, mu in rows]
    cases.append(("table-ade/whitney-nonisolated", lambda: (
        classify_surface(parse_poly("x^2 - y^2*z", V3)).kind == "whitney_umbrella",
        "disambiguated by isolatedness")))
    cases.append(("table-ade/D4-isolated", lambda: (
        classify_surface(parse_poly("x^2 + y^2*z + z^3", V3)).label() == "D4",
        "disambiguated by isolatedness")))
    return cases


def corpus_whitney() -> List[Case]:
    expected = [
        ("x:1 y:1 z:1", F(2), F(-1), "2*x*@y^@z"),
        ("x:1 y:1 z:inf", F(2), F(0), None),
        ("x:2 y:3 z:3", F(1), F(-1, 6), None),
    ]

    def order_case(spec, ord_w, ord_sigma, lt_sigma_text):
        def thunk() -> Outcome:
            W = parse_poly("x^2 - y^2*z", V3)
            sigma = jacobian_poisson(W)
            centre = parse_centre(spec)
            ok = (centre.ord_poly(W) == ord_w
                  and centre.ord_polyvector(sigma) == ord_sigma)
            if lt_sigma_text is None:
                ok = ok and centre.leading_term_polyvector(sigma) == sigma
                ok = ok and centre.leading_term_poly(W) == W
            else:
                ok = ok and centre.leading_term_polyvector(sigma) == \
                    parse_polyvector(lt_sigma_text, V3)
                ok = ok and centre.leading_term_poly(W) == parse_poly("x^2", V3)
            detail = (f"ord W {centre.ord_poly(W)}, "
                      f"ord sigma {centre.ord_polyvector(sigma)}")
            return ok, detail
        return thunk

    def conilpotent_axis() -> Outcome:
        sigma = jacobian_poisson(parse_poly("x^2 - y^2*z", V3))
        report = check_centre(sigma, parse_centre("x:1 y:1 z:inf"))
        return bool(report.conilpotent), "centre (1,1,inf)"

    def point_not_codegenerate() -> Outcome:
        sigma = jacobian_poisson(parse_poly("x^2 - y^2*z", V3))
        report = check_centre(sigma, parse_centre("x:1 y:1 z:1"))
        return report.poisson is True and report.codegenerate is False, ""

    def cd2_witness() -> Outcome:
        W = parse_poly("x^2 - y^2*z", V3)
        report = check_centre(jacobian_poisson(W), parse_centre("x:2 y:3 z:3"))
        witnesses = [w for w in report.witnesses if w.tag == "CD2"]
        ok = (report.poisson is True and report.codegenerate is False
              and len(witnesses) == 1 and witnesses[0].combination == W
              and witnesses[0].offending == 1
              and witnesses[0].required == F(7, 6))
        return ok, f"witness {witnesses[0].combination if witnesses else None}"

    cases = [(f"whitney/orders {spec}", order_case(spec, a, b, c))
             for spec, a, b, c in expected]
    cases.append(("whitney/conilpotent-axis", conilpotent_axis))
    cases.append(("whitney/point-not-codegenerate", point_not_codegenerate))
    cases.append(("whitney/CD2-witness-is-W", cd2_witness))
    return cases


def _random_poly(rng: random.Random, variables: Sequence[str],
                 max_degree: int = 4) -> Poly:
    terms = {}
    for _ in range(rng.randint(0, 4)):
        exponent = [0] * len(variables)
        for _ in range(rng.randint(0, max_degree)):
            exponent[rng.randrange(len(variables))] += 1
        key = tuple(exponent)
        terms[key] = terms.get(key, 0) + rng.randint(-4, 4)
    return Poly(variables, {k: v for k, v in terms.items() if v})


def _random_polyvector(rng: random.Random, variables: Sequence[str]) -> Polyvector:
    degree = rng.randint(0, len(variables))
    terms = {}
    for indices in itertools.combinations(range(len(variables)), degree):
        if rng.random() < 0.8:
            coeff = _random_poly(rng, variables)
            if not coeff.is_zero():
                terms[indices] = coeff
    return Polyvector(degree, tuple(variables), terms)


def _random_centre(rng: random.Random, variables: Sequence[str]) -> Centre:
    exponents = []
    for _ in variables:
        if rng.random() < 0.25:
            exponents.append(INF)
        else:
            exponents.append(F(rng.randint(1, 6), rng.randint(1, 4)))
    if all(e is INF for e in exponents):
        exponents[rng.randrange(len(exponents))] = F(1)
    return Centre.from_exponents(tuple(variables), exponents)


def corpus_lifting() -> List[Case]:
    def block(offset: int):
        def thunk() -> Outcome:
            rng = random.Random(20240915 + offset)
            disagreements = 0
            for _ in range(55):
                n = rng.randint(1, 3)
                variables = V3[:n]
                centre = _random_centre(rng, variables)
                xi = _random_polyvector(rng, variables)
                lift = check_lift(xi, centre)
                pulled = pullback_polyvector(xi, centre)
                if lift.lift_ok != pulled.regular:
                    disagreements += 1
                elif lift.lift_ok and lift.exceptional_tangent != pulled.exceptional_tangent:
                    disagreements += 1
            return disagreements == 0, f"55 pairs, {disagreements} disagreements"
        return thunk

    # 220 pairs in four blocks of 55
    return [(f"lifting/oracle-pairs-block-{i}", block(i)) for i in range(4)]


def corpus_invariants() -> List[Case]:
    checks = [
        ("2,3,9/2", True), ("2,3,11/2", False), ("3/2,2", False),
        ("2,3,15/2", True), ("2,2,5/2", False), ("2,2,7", True),
    ]

    def validation_case(text, expect_valid):
        def thunk() -> Outcome:
            verdict = validate_invariant(InvariantSeq.parse(text))
            return (verdict.status == VALID) == expect_valid, verdict.status
        return thunk

    def scaling_case(name, text, variables, base):
        def thunk() -> Outcome:
            f = parse_poly(text, variables)
            details = []
            ok = True
            for k in (1, 2, 3):
                entries = max_monomial_centre(f ** k).invariant.finite_entries()
                ok = ok and entries == tuple(k * b for b in base)
                details.append("(" + ",".join(str(e) for e in entries) + ")")
            return ok, " ".join(details)
        return thunk

    cases = [(f"invariants/validate {text}", validation_case(text, expected))
             for text, expected in checks]
    cases.append(("invariants/power-scaling cusp",
                  scaling_case("cusp", "y^2 - x^3", ("x", "y"), (F(2), F(3)))))
    cases.append(("invariants/power-scaling E6",
                  scaling_case("E6", "x^2 + y^3 + z^4", V3, (F(2), F(3), F(4)))))
    return cases


def corpus_curves() -> List[Case]:
    curves = [("node", "y^2 - x^2"), ("cusp", "y^2 - x^3"),
              ("tacnode", "y^2 - x^4"), ("ramphoid", "y^2 - x^5"),
              ("E8-curve", "y^3 - x^5")]

    def curve_case(text):
        def thunk() -> Outcome:
            tree = resolve_plane_curve(parse_poly(text, ("x", "y")))
            complete = resolution_is_complete(tree)
            return (complete and count_blowups(tree) <= 4,
                    f"blowups {count_blowups(tree)}, complete {complete}")
        return thunk

    return [(f"curves/{name}", curve_case(text)) for name, text in curves]


def corpus_triples() -> List[Case]:
    origin = (F(0),) * 3
    cases: List[Case] = []

    def linearize_case(text, expected):
        def thunk() -> Outcome:
            _, got = linearize(parse_polyvector(text, V3), origin)
            return got == expected, got
        return thunk

    for text, expected in (("x*@x^@y", SPLIT_NONABELIAN),
                           ("x*@y^@z", HEISENBERG),
                           ("x^2*@x^@y", ABELIAN)):
        cases.append((f"triples/linearize {text}", linearize_case(text, expected)))

    def duval_case(family, n, expected):
        def thunk() -> Outcome:
            f = DUVAL_EQUATIONS[family](n, V3) if family in DUVAL_EQUATIONS \
                else parse_poly(family, V3)
            verdict = detect_duval_point(jacobian_poisson(f), f, origin)
            return verdict.duval is expected, ""
        return thunk

    for family, n in (("A", 1), ("A", 2), ("D", 4),
                      ("E6", None), ("E7", None), ("E8", None)):
        cases.append((f"triples/duval {family}{n or ''}", duval_case(family, n, True)))
    cases.append(("triples/not-duval whitney", duval_case("x^2 - y^2*z", None, False)))
    cases.append(("triples/not-duval crossings", duval_case("x*y", None, False)))

    def whitney_selection() -> Outcome:
        whitney = parse_poly("x^2 - y^2*z", V3)
        selection = select_centre_32(jacobian_poisson(whitney), whitney)
        ok = (selection.case == "inv_233_surface"
              and str(selection.centre) == "x:1 y:1 z:inf"
              and bool(selection.certificate.centre_report.conilpotent))
        return ok, str(selection.centre)

    cases.append(("triples/whitney-centre-selection", whitney_selection))
    return cases


CORPORA: Dict[str, Callable[[], List[Case]]] = {
    "table-ade": corpus_table_ade,
    "whitney": corpus_whitney,
    "lifting": corpus_lifting,
    "invariants": corpus_invariants,
    "curves": corpus_curves,
    "triples": corpus_triples,
}
