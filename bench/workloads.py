"""Seeded input generators, library calls and verdict oracles for the workloads.

Each workload draws an endless stream of blocks from its seed; block ``k`` of
seed ``s`` is always the same list of cases.  A block has a fixed make-up
(how many cases of each family, and how many from each documented-defect
stratum), so the share of known failures is the same in every block and for
every seed.  Random choices happen inside the families: indices, coefficients,
perturbations, coordinate changes.  Curve shapes are walked in turn instead.

The oracles never ask the code under test for the expected answer:

* ``classify``: the label is known by construction (a standard germ, higher
  terms above its weighted order, then an invertible linear change);
* ``lift``: the two independent lifting routes must agree, and ``u*J(f)`` is
  Poisson by the three-dimensional theorem;
* ``curves``: one-branch curves, plain or moved by a plane automorphism that
  adds terms above the weighted order, must resolve completely in one blowup;
  two-branch products must exit 0 with a complete resolution or exit 3.  The
  runner checks that ``--machine`` output is byte-identical when repeated.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction as F
from itertools import combinations
from math import gcd
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import wblow
import wblow.cli
from wblow import INF, Centre, Poly, Polyvector

V2 = ("x", "y")
V3 = ("x", "y", "z")
COEFFICIENTS = (1, -1, 2, -2, 3, -3, F(1, 2), F(-1, 2), F(2, 3), F(-3, 2))
SCALINGS = (1, -1, 2, -2, F(1, 2), F(-1, 2))


@dataclass(frozen=True)
class Case:
    id: str
    family: str
    inputs: tuple
    expected: object
    known_defect: bool     # drawn from a stratum with a documented defect
    text: str              # canonical form of the inputs, hashed into the output


@dataclass
class Outcome:
    ok: bool
    verdict: str           # compared between traced and untraced passes
    emitted: int = 0       # bytes written by the CLI
    counts: Dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    block: Callable[[int, int], List[Case]]
    run: Callable[[Case], Outcome]
    budget_s: Optional[float]   # per-case wall budget; an overrun is a failure
    repeat_check: bool          # re-run cases to check byte-identical output


def _rng(workload: str, seed: int, block: int) -> random.Random:
    # string seeds hash with SHA-512, so streams do not depend on PYTHONHASHSEED
    return random.Random(f"{workload}:{seed}:{block}")


def _higher_monomial(rng: random.Random, weights: Sequence[F], base: Dict[tuple, object],
                     allowed: Callable[[tuple], bool]) -> Tuple[tuple, object]:
    """A monomial of weighted order in (1, 2] and degree <= 5, not in ``base``."""
    bounds = [int(2 / w) + 1 if w else 3 for w in weights]
    while True:
        exponent = tuple(rng.randint(0, b) for b in bounds)
        order = sum(w * e for w, e in zip(weights, exponent))
        if 1 < order <= 2 and sum(exponent) <= 5 and exponent not in base and allowed(exponent):
            return exponent, rng.choice(COEFFICIENTS)


# ---------------------------------------------------------------------------
# classify: germs whose class is known by construction
# ---------------------------------------------------------------------------

def _standard_germ(family: str, n: int) -> Tuple[Dict[tuple, int], Tuple[F, ...], str]:
    """Support of the standard equation, weights making it order one, label."""
    if family == "A":
        return ({(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, n + 1): 1},
                (F(1, 2), F(1, 2), F(1, n + 1)), f"A{n}")
    if family == "D":
        return ({(2, 0, 0): 1, (0, 2, 1): 1, (0, 0, n - 1): 1},
                (F(1, 2), F(n - 2, 2 * (n - 1)), F(1, n - 1)), f"D{n}")
    if family == "E6":
        return {(2, 0, 0): 1, (0, 3, 0): 1, (0, 0, 4): 1}, (F(1, 2), F(1, 3), F(1, 4)), "E6"
    if family == "E7":
        return {(2, 0, 0): 1, (0, 3, 0): 1, (0, 1, 3): 1}, (F(1, 2), F(1, 3), F(2, 9)), "E7"
    if family == "E8":
        return {(2, 0, 0): 1, (0, 3, 0): 1, (0, 0, 5): 1}, (F(1, 2), F(1, 3), F(1, 5)), "E8"
    if family == "whitney":
        return {(2, 0, 0): 1, (0, 2, 1): -1}, (F(1, 2), F(1, 3), F(1, 3)), "whitney_umbrella"
    if family == "nc":
        return {(1, 1, 0): 1}, (F(1, 2), F(1, 2), F(0)), "normal_crossings_2"
    raise ValueError(family)


# Non-isolated germs stay in their class only when the higher terms keep the
# singular locus: (x,y)^2 for the Whitney umbrella, (x,y)^3 for crossings.
_ALLOWED = {
    "whitney": lambda e: e[0] + e[1] >= 2,
    "nc": lambda e: e[0] + e[1] >= 3,
}

# (family, index range, sheared) per block.  Indices are stratified so that
# every block spans the range; A13+ and D14+ are the documented defect strata
# (the Milnor degree bound 12 is exhausted and the germ is labelled "other").
# Shears go to fixed slots: a shear mixing the Morse variable into the others
# makes the Milnor computation on the given coordinates dense, which from
# index 9 on costs up to 40 s a germ, and a block would be timed by one draw.
CLASSIFY_BLOCK = (
    ("A", (1, 2), True), ("A", (3, 5), True), ("A", (6, 8), False), ("A", (9, 10), False),
    ("A", (11, 12), False),
    ("D", (4, 5), True), ("D", (6, 8), True), ("D", (9, 11), False), ("D", (12, 13), False),
    ("E6", None, True), ("E7", None, True), ("E8", None, False),
    ("whitney", None, True), ("whitney", None, False), ("whitney", None, False),
    ("nc", None, True), ("nc", None, False), ("nc", None, False),
    ("A", (13, 15), False), ("D", (14, 16), False),
)
CLASSIFY_DEFECT = {"A": 13, "D": 14}


def classify_block(seed: int, block: int) -> List[Case]:
    rng = _rng("classify", seed, block)
    cases = []
    for position, (family, span, shear) in enumerate(CLASSIFY_BLOCK):
        n = rng.randint(*span) if span else 0
        support, weights, label = _standard_germ(family, n)
        base = {e: c * rng.choice(COEFFICIENTS) for e, c in support.items()}
        exponent, coefficient = _higher_monomial(rng, weights, base,
                                                 _ALLOWED.get(family, lambda e: True))
        germ = Poly(V3, {**base, exponent: coefficient})
        # permutation with rational scalings, then at most one catalogue shear
        # (last, so that the inverse shear is itself in the catalogue).  The
        # sheared variable is one of low degree: shearing z in z^13 would
        # expand it into a dense germ that no user would write.
        order = list(V3)
        rng.shuffle(order)
        germ = germ.substitute({v: Poly.var(V3, w).scale(rng.choice(SCALINGS))
                                for v, w in zip(V3, order)})
        sources = [v for v in V3 if germ.degree_in(v) <= 4]
        sheared = shear and bool(sources)
        if sheared:
            source = rng.choice(sources)
            target = rng.choice([v for v in V3 if v != source])
            shift = Poly.var(V3, target).scale(rng.choice((1, -1, 2, -2)))
            germ = germ.substitute({source: Poly.var(V3, source) + shift})
        known = family in CLASSIFY_DEFECT and n >= CLASSIFY_DEFECT[family]
        cases.append(Case(f"{block}.{position}", family + " sheared" * sheared, (germ,),
                          label, known, f"classify {germ}"))
    return cases


def classify_run(case: Case) -> Outcome:
    result = wblow.classify_surface(case.inputs[0])
    label = result.label()
    return Outcome(label == case.expected, label)


# ---------------------------------------------------------------------------
# lift: the two lifting routes, centre conditions, the Jacobian theorem
# ---------------------------------------------------------------------------

def _random_poly(rng: random.Random, variables: Sequence[str], max_terms: int = 4,
                 max_degree: int = 4) -> Poly:
    terms: Dict[Tuple[int, ...], object] = {}
    for _ in range(rng.randint(0, max_terms)):
        exponent = [0] * len(variables)
        for _ in range(rng.randint(0, max_degree)):
            exponent[rng.randrange(len(variables))] += 1
        terms[tuple(exponent)] = rng.choice(COEFFICIENTS)
    return Poly(variables, terms)


def _random_polyvector(rng: random.Random, variables: Sequence[str], degree: int) -> Polyvector:
    terms = {indices: _random_poly(rng, variables)
             for indices in combinations(range(len(variables)), degree)
             if rng.random() < 0.8}
    return Polyvector(degree, variables, terms)


def _random_centre(rng: random.Random, variables: Sequence[str]) -> Centre:
    exponents = [INF if rng.random() < 0.25 else F(rng.randint(1, 6), rng.randint(1, 3))
                 for _ in variables]
    if all(e is INF for e in exponents):
        exponents[rng.randrange(len(variables))] = F(rng.randint(1, 4))
    point = None
    if rng.random() < 0.2:
        point = tuple(rng.randint(-2, 2) for _ in variables)
    return Centre.from_exponents(variables, exponents, point)


LIFT_BLOCK = ("routes",) * 20 + ("centre",) * 20 + ("poisson",) * 20


def lift_block(seed: int, block: int) -> List[Case]:
    rng = _rng("lift", seed, block)
    kinds = list(LIFT_BLOCK)
    rng.shuffle(kinds)
    cases = []
    for position, kind in enumerate(kinds):
        if kind == "routes":
            variables = V3[:rng.randint(1, 3)]
            xi = _random_polyvector(rng, variables, rng.randint(0, len(variables)))
            centre = _random_centre(rng, variables)
            inputs: tuple = (xi, centre)
            text = f"routes [{centre}] {xi}"
        elif kind == "centre":
            variables = V3[:rng.randint(2, 3)]
            sigma = _random_polyvector(rng, variables, 2)
            centre = _random_centre(rng, variables)
            inputs, text = (sigma, centre), f"centre [{centre}] {sigma}"
        else:
            f = _random_poly(rng, V3, max_terms=5)
            while f.total_degree() < 1:
                f = _random_poly(rng, V3, max_terms=5)
            u = _random_poly(rng, V3, max_terms=3, max_degree=2)
            inputs, text = (u, f), f"poisson u={u} f={f}"
        cases.append(Case(f"{block}.{position}", kind, inputs, None, False, text))
    return cases


def lift_run(case: Case) -> Outcome:
    if case.family == "routes":
        xi, centre = case.inputs
        lift = wblow.check_lift(xi, centre)
        pulled = wblow.pullback_polyvector(xi, centre)
        ok = lift.lift_ok == pulled.regular and (
            not lift.lift_ok or lift.exceptional_tangent == pulled.exceptional_tangent)
        return Outcome(ok, f"{lift.lift_ok} {lift.exceptional_tangent} {pulled.regular} "
                           f"{pulled.exceptional_tangent} {pulled.min_t_exponent}")
    if case.family == "centre":
        sigma, centre = case.inputs
        report = wblow.check_centre(sigma, centre)
        pulled = wblow.pullback_polyvector(sigma, centre)
        return Outcome(report.codegenerate == pulled.regular,
                       f"{report.poisson} {report.codegenerate} {report.conilpotent} "
                       f"{pulled.regular} {report.order}")
    u, f = case.inputs
    poisson, _ = wblow.is_poisson(wblow.jacobian_poisson(f).scale(u))
    return Outcome(poisson is True, str(poisson))


# ---------------------------------------------------------------------------
# curves: resolve-curve through the command line, in process
# ---------------------------------------------------------------------------

# Two-branch shapes (a, b, a', b') for (y^a - c*x^b)*(y^a' - c'*x^b').  The
# quick shapes finish within a small fraction of the budget for every
# coefficient pair drawn.  (2, 3, 3, 5) with a coefficient of at least 3 is the
# documented defect stratum: its eliminant has a large constant term, and
# rational_roots' trial division by every integer up to it runs for over 20 s,
# far past the budget.  (With coefficients 1 and 2 it ends within 2 to 17 s.)
QUICK_SHAPES = ((1, 2, 1, 5), (1, 2, 1, 6), (1, 3, 1, 6), (1, 3, 2, 3), (1, 3, 3, 4),
                (1, 3, 3, 5), (1, 4, 2, 3), (1, 4, 2, 5), (1, 4, 3, 4), (1, 4, 3, 5),
                (1, 5, 2, 3), (1, 5, 2, 5), (1, 5, 3, 4), (1, 5, 3, 5), (1, 6, 2, 3),
                (1, 6, 2, 5), (1, 6, 3, 4), (1, 6, 3, 5), (2, 3, 2, 5), (2, 5, 3, 4),
                (2, 5, 3, 5), (3, 4, 3, 5))
STALLING_SHAPE = (2, 3, 3, 5)
BRANCH_COEFFICIENTS = (1, 2, 3, 5, 7)
# One-branch exponents (a, b): y^2 - c*x^b, and coprime y^a - c*x^b.  A
# perturbed curve has degree a*(b//a + 1), kept <= 6: the global singular-point
# search takes up to 0.3 s at degree 8 and over half the budget at degree 10.
M2_EXPONENTS = tuple((2, b) for b in range(3, 10))
COPRIME_EXPONENTS = tuple((a, b) for a in (3, 4, 5) for b in range(a + 1, 2 * a + 3)
                          if gcd(a, b) == 1)
MAX_PERTURBED_DEGREE = 6

CURVES_BLOCK = (("m2", "plain"),) * 3 + (("m2", "perturbed"),) * 3 \
    + (("coprime", "plain"),) * 3 + (("coprime", "perturbed"),) * 3 \
    + (("product", "quick"),) * 8 + (("product", "stalling"),)


def _branch(a: int, b: int, c: int, swap: bool = False) -> Poly:
    """y^a - c*x^b, or x^a - c*y^b when swapped."""
    if swap:
        return Poly(V2, {(a, 0): 1, (0, b): -c})
    return Poly(V2, {(0, a): 1, (b, 0): -c})


def _cycled(options: Sequence, block: int, per_block: int, index: int):
    """The ``index``-th of ``per_block`` draws in ``block``, walking ``options``
    in turn: every seed sees each shape equally often, and a run's mix of
    cheap and costly shapes does not depend on the seed."""
    return options[(block * per_block + index) % len(options)]


def curves_block(seed: int, block: int) -> List[Case]:
    rng = _rng("curves", seed, block)
    cases = []
    for position, slot in enumerate(CURVES_BLOCK):
        family, variant = slot
        stalling = variant == "stalling"
        # slots of one kind are contiguous in CURVES_BLOCK
        index, per_block = position - CURVES_BLOCK.index(slot), CURVES_BLOCK.count(slot)
        if family == "product":
            a, b, a2, b2 = (STALLING_SHAPE if stalling
                            else _cycled(QUICK_SHAPES, block, per_block, index))
            c, c2 = rng.choice(BRANCH_COEFFICIENTS), rng.choice(BRANCH_COEFFICIENTS)
            while stalling and max(c, c2) < 3:
                c, c2 = rng.choice(BRANCH_COEFFICIENTS), rng.choice(BRANCH_COEFFICIENTS)
            first, second = _branch(a, b, c), _branch(a2, b2, c2)
            text = f"({first})*({second})"
            cases.append(Case(f"{block}.{position}", "product", (text,), None, stalling, text))
            continue
        exponents = M2_EXPONENTS if family == "m2" else COPRIME_EXPONENTS
        perturbed = variant == "perturbed"
        if perturbed:
            exponents = [(a, b) for a, b in exponents if a * (b // a + 1) <= MAX_PERTURBED_DEGREE]
        a, b = _cycled(exponents, block, per_block, index)
        swap = rng.random() < 0.5
        curve = _branch(a, b, rng.choice(COEFFICIENTS[:6]), swap)
        if perturbed:
            # y -> y + d*x^k with k > b/a, so every new term lies above the
            # weighted order: an automorphism of the plane, so the curve keeps
            # its one singular point and its one-blowup resolution
            main, other = ("x", "y") if swap else ("y", "x")
            shift = (Poly.var(V2, other) ** (b // a + 1)).scale(rng.choice(COEFFICIENTS))
            curve = curve.substitute({main: Poly.var(V2, main) + shift})
        text = str(curve)
        cases.append(Case(f"{block}.{position}", family, (text,), "one-blowup", False, text))
    return cases


def curves_run(case: Case) -> Outcome:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = wblow.cli.main(["--machine", "resolve-curve", case.inputs[0]])
    data = out.getvalue()
    report = json.loads(data) if data else {}
    complete, blowups = report.get("complete"), report.get("blowups", 0)
    if case.family == "product":
        ok = code == 3 or (code == 0 and complete is True)
    else:
        ok = code == 0 and complete is True and blowups == 1
    digest = hashlib.sha256(data.encode()).hexdigest()[:16]
    return Outcome(ok, f"exit={code} {digest}", len(data.encode()),
                   {"charts": _count_charts(report.get("tree")), "blowups": blowups})


def _count_charts(tree: Optional[dict]) -> int:
    if not tree:
        return 0
    return 1 + sum(_count_charts(child) for child in tree["children"])


WORKLOADS = {
    "classify": Workload("classify", classify_block, classify_run, None, False),
    "lift": Workload("lift", lift_block, lift_run, None, False),
    "curves": Workload("curves", curves_block, curves_run, 1.0, True),
}
