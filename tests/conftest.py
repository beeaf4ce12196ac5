import itertools
import random
from fractions import Fraction

import pytest

from wblow.polyvector import CoordinateChange
from wblow.ring import Poly

V2 = ("x", "y")
V3 = ("x", "y", "z")


def random_poly(rng: random.Random, variables, max_degree: int = 3,
                max_terms: int = 4, allow_zero: bool = True) -> Poly:
    terms = {}
    lower = 0 if allow_zero else 1
    for _ in range(rng.randint(lower, max_terms)):
        exponent = [0] * len(variables)
        for _ in range(rng.randint(0, max_degree)):
            exponent[rng.randrange(len(variables))] += 1
        key = tuple(exponent)
        terms[key] = terms.get(key, 0) + Fraction(rng.randint(-4, 4))
    return Poly(variables, {k: v for k, v in terms.items() if v})


def random_nonzero_poly(rng, variables, max_degree=3, max_terms=4) -> Poly:
    while True:
        f = random_poly(rng, variables, max_degree, max_terms, allow_zero=False)
        if not f.is_zero():
            return f


@pytest.fixture
def rng():
    return random.Random(987654321)


def det(m):
    """The determinant of a square matrix, by expansion along the first row."""
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * a * det([row[:j] + row[j + 1:] for row in m[1:]])
               for j, a in enumerate(m[0]) if a)


def linear_change(rows) -> CoordinateChange:
    """The change x_i -> sum_j rows[i][j]*x_j of an invertible matrix, on
    (x, y) or (x, y, z) by its size.

    Gauss-Jordan elimination takes rows to the identity by row operations
    E_1, E_2, ...; rows = E_1^-1 E_2^-1 ..., and a change substitutes its
    steps' matrices in order, so each E is recorded as the step of E^-1: a
    shear for row_i += c*row_j, a scaling for a pivot p != 1.
    """
    n = len(rows)
    variables = V3[:n]
    m = [[Fraction(e) for e in row] for row in rows]
    steps = []

    def add(i, j, c):
        m[i] = [a + c * b for a, b in zip(m[i], m[j])]
        steps.append(CoordinateChange.shear(variables[i],
                                            Poly.var(variables, variables[j]).scale(-c)))

    for col in range(n):
        if m[col][col] == 0:
            add(col, next(r for r in range(col + 1, n) if m[r][col]), 1)
        pivot = m[col][col]
        if pivot != 1:
            m[col] = [a / pivot for a in m[col]]
            steps.append(CoordinateChange.scaling(variables, variables[col], pivot))
        for r in range(n):
            if r != col and m[r][col]:
                add(r, col, -m[r][col])
    return sum(steps, CoordinateChange(()))


def random_change(rng: random.Random, entries, degree: int, variables=V3) -> CoordinateChange:
    """A seeded change of ``variables`` with coefficients ``rng.choice(entries)``.

    Degree one: ``linear_change`` of the first square matrix drawn that is
    invertible and, when ``entries`` reach outside -3..3, has an entry
    there (inside are the integer shears that surface classification once
    searched).  Degree d > 1: the triangular change that shifts each
    variable but the last by a polynomial in the later ones (on (x, y, z):
    x -> x + p(y, z), then y -> y + q(z)) with every monomial of degrees 2
    to d, drawn degree by degree, pure powers first.
    """
    n = len(variables)
    if degree == 1:
        wide = any(abs(e) > 3 for e in entries)
        while True:
            m = [[rng.choice(entries) for _ in range(n)] for _ in range(n)]
            if det(m) and (not wide or any(abs(e) > 3 for row in m for e in row)):
                return linear_change(m)
    change = CoordinateChange(())
    for i, name in enumerate(variables[:-1]):
        shift = Poly.zero(variables)
        for d in range(2, degree + 1):
            exponents = [e for e in itertools.product(range(d + 1), repeat=n - i - 1)
                         if sum(e) == d]
            for e in sorted(exponents, key=lambda e: (sum(map(bool, e)), [-a for a in e])):
                shift = shift + Poly(variables, {(0,) * (i + 1) + e: rng.choice(entries)})
        change += CoordinateChange.shear(name, shift)
    return change


def undo(change: CoordinateChange) -> CoordinateChange:
    """The inverse change: each step name -> c*name + s undone by
    name -> (name - s)/c, in reverse order."""
    steps = []
    for name, image in reversed(change.steps):
        x = Poly.var(image.variables, name)
        c = image.diff(name).constant_term()
        steps.append((name, (x - (image - x.scale(c))).scale(1 / c)))
    return CoordinateChange(tuple(steps))
