"""Polyvector-field calculus: wedge products, the Schouten bracket, interior
products with exact one-forms, Jacobian bivectors, Poisson and tangency tests,
pointwise linearization into three-dimensional Lie algebras, and
``CoordinateChange``, the one change of coordinates for functions and
bivectors (every preparation of the library is one).

A degree-j polyvector is a finite sum  sum_I  f_I  d/dx_{i_1} ^ ... ^ d/dx_{i_j}
over strictly increasing index tuples I, with Poly coefficients f_I.  Degree 0
is an ordinary polynomial (single key ``()``).

Sign conventions.  The Schouten bracket is normalised so that for the
coordinate volume trivector mu = @x^@y^@z and a function f,

    [mu, f] = f_x @y^@z + f_y @z^@x + f_z @x^@y,

i.e. [mu, f] equals the contraction of mu with df.  With this normalisation
the bracket restricts to the Lie bracket of vector fields in degree (1, 1)
and to the derivative pairing X(f) in degree (1, 0).  Graded antisymmetry and
the graded Jacobi identity hold exactly and are covered by the test suite.

Text syntax: ``@v`` denotes d/dv and ``^`` between ``@``-tokens is the wedge,
so the example above reads ``2*x*@y^@z - 2*y*z*@z^@x - y^2*@x^@y`` for the
bivector attached to x^2 - y^2*z.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from .ring import Point, Poly, _ExprParser, divides, insert_row, tokenize

IndexTuple = Tuple[int, ...]


def _sort_indices(indices: Sequence[int]) -> Optional[Tuple[IndexTuple, int]]:
    """Sort a wedge index sequence, returning (sorted tuple, Koszul sign).

    Returns None when an index repeats (the wedge vanishes).
    """
    indices = list(indices)
    if len(set(indices)) != len(indices):
        return None
    sign = 1
    for i in range(1, len(indices)):
        j = i
        while j > 0 and indices[j - 1] > indices[j]:
            indices[j - 1], indices[j] = indices[j], indices[j - 1]
            sign = -sign
            j -= 1
    return tuple(indices), sign


class Polyvector:
    """Homogeneous alternating polyvector field with Poly coefficients."""

    __slots__ = ("degree", "variables", "terms")

    def __init__(
        self,
        degree: int,
        variables: Sequence[str],
        terms: Mapping[IndexTuple, Poly],
    ):
        variables = tuple(variables)
        n = len(variables)
        if degree < 0:
            raise ValueError(f"polyvector degree must be >= 0, got {degree}")
        clean: Dict[IndexTuple, Poly] = {}
        for indices, coeff in terms.items():
            indices = tuple(indices)
            if len(indices) != degree:
                raise ValueError(f"index tuple {indices} has length != degree {degree}")
            if any(not (0 <= i < n) for i in indices):
                raise ValueError(f"index tuple {indices} out of range for {variables}")
            if list(indices) != sorted(set(indices)):
                raise ValueError(f"index tuple {indices} is not strictly increasing")
            if coeff.variables != variables:
                raise ValueError("coefficient chart does not match polyvector chart")
            if not coeff.is_zero():
                clean[indices] = coeff
        self.degree = degree
        self.variables = variables
        self.terms = clean

    # -- constructors --------------------------------------------------------

    @classmethod
    def _from_canonical(cls, degree: int, variables: Tuple[str, ...],
                        terms: Dict[IndexTuple, Poly]) -> "Polyvector":
        """Wrap terms already valid for ``__init__`` (strictly increasing index
        tuples of length ``degree``, coefficients on the chart), dropping zero
        coefficients; ``terms`` is owned by the result."""
        self = object.__new__(cls)
        self.degree = degree
        self.variables = variables
        self.terms = {i: c for i, c in terms.items() if c.nums}
        return self

    @classmethod
    def zero(cls, degree: int, variables: Sequence[str]) -> "Polyvector":
        return cls(degree, variables, {})

    @classmethod
    def from_poly(cls, f: Poly) -> "Polyvector":
        return cls(0, f.variables, {(): f})

    @classmethod
    def basis_vector(cls, variables: Sequence[str], name: str) -> "Polyvector":
        variables = tuple(variables)
        index = variables.index(name)
        return cls(1, variables, {(index,): Poly.const(variables, 1)})

    @classmethod
    def volume(cls, variables: Sequence[str]) -> "Polyvector":
        """The coordinate volume polyvector @x_1 ^ ... ^ @x_n."""
        variables = tuple(variables)
        n = len(variables)
        return cls(n, variables, {tuple(range(n)): Poly.const(variables, 1)})

    # -- queries ---------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def as_poly(self) -> Poly:
        if self.degree != 0:
            raise ValueError("only a degree-0 polyvector is a polynomial")
        return self.terms.get((), Poly.zero(self.variables))

    def coefficient(self, indices: Sequence[int]) -> Poly:
        sorted_indices = _sort_indices(indices)
        if sorted_indices is None:
            return Poly.zero(self.variables)
        key, sign = sorted_indices
        coeff = self.terms.get(key, Poly.zero(self.variables))
        return coeff if sign > 0 else -coeff

    def bracket_of_coordinates(self, i: int, j: int) -> Poly:
        """The function {x_i, x_j} = sigma(dx_i ^ dx_j) of a bivector."""
        if self.degree != 2:
            raise ValueError("coordinate brackets require a bivector")
        return self.coefficient((i, j))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polyvector):
            return NotImplemented
        if self.variables != other.variables or self.terms != other.terms:
            return False
        # zero polyvectors of any recorded degree are the same zero
        return self.degree == other.degree or not self.terms

    def __hash__(self) -> int:
        if not self.terms:
            return hash((self.variables, "zero"))
        return hash((self.degree, self.variables, frozenset(self.terms)))

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- linear structure -------------------------------------------------------

    def _check(self, other: "Polyvector") -> None:
        if self.variables != other.variables:
            raise ValueError(
                f"variable lists differ: {self.variables} vs {other.variables}")

    def __add__(self, other: "Polyvector") -> "Polyvector":
        self._check(other)
        if self.degree != other.degree:
            # the zero polyvector is degree-agnostic
            if self.is_zero():
                return other
            if other.is_zero():
                return self
            raise ValueError("cannot add polyvectors of different degree")
        out = dict(self.terms)
        for indices, coeff in other.terms.items():
            out[indices] = out[indices] + coeff if indices in out else coeff
        return Polyvector._from_canonical(self.degree, self.variables, out)

    def __neg__(self) -> "Polyvector":
        return Polyvector._from_canonical(self.degree, self.variables,
                                          {i: -c for i, c in self.terms.items()})

    def __sub__(self, other: "Polyvector") -> "Polyvector":
        return self + (-other)

    def scale(self, value: Union[int, Fraction, Poly]) -> "Polyvector":
        if isinstance(value, Poly):
            return Polyvector._from_canonical(self.degree, self.variables,
                                              {i: c * value for i, c in self.terms.items()})
        return Polyvector._from_canonical(self.degree, self.variables,
                                          {i: c.scale(value) for i, c in self.terms.items()})

    def __mul__(self, value: Union[int, Fraction, Poly]) -> "Polyvector":
        return self.scale(value)

    __rmul__ = __mul__

    def map_coefficients(self, fn) -> "Polyvector":
        mapped = {i: fn(c) for i, c in self.terms.items()}
        if any(c.variables != self.variables for c in mapped.values()):
            raise ValueError("coefficient chart does not match polyvector chart")
        return Polyvector._from_canonical(self.degree, self.variables, mapped)

    def translate(self, point: Point) -> "Polyvector":
        """Recentre every coefficient at ``point`` (constant frame)."""
        return self.map_coefficients(lambda c: c.translate(point))

    def evaluate(self, point: Point) -> Dict[IndexTuple, Fraction]:
        return {i: c.evaluate(point) for i, c in self.terms.items()}

    def vanishes_at(self, point: Point) -> bool:
        return all(v == 0 for v in self.evaluate(point).values())

    # -- printing ----------------------------------------------------------------

    def __repr__(self) -> str:
        return f"Polyvector({self})"

    def __str__(self) -> str:
        if self.degree == 0:
            return str(self.as_poly())
        if not self.terms:
            return "0"
        pieces: List[str] = []
        for indices in sorted(self.terms):
            coeff = self.terms[indices]
            wedge = "^".join(f"@{self.variables[i]}" for i in indices)
            if len(coeff.nums) == 1:
                body = str(coeff)
                if body == "1":
                    text = wedge
                elif body == "-1":
                    text = f"-{wedge}"
                else:
                    text = f"{body}*{wedge}"
            else:
                text = f"({coeff})*{wedge}"
            if not pieces:
                pieces.append(text)
            elif text.startswith("-"):
                pieces.append(f"- {text[1:]}")
            else:
                pieces.append(f"+ {text}")
        return " ".join(pieces)


# ---------------------------------------------------------------------------
# wedge and Schouten bracket
# ---------------------------------------------------------------------------

def wedge(xi: Polyvector, eta: Polyvector) -> Polyvector:
    """Alternating product; degrees add, Koszul signs from index sorting."""
    xi._check(eta)
    degree = xi.degree + eta.degree
    out: Dict[IndexTuple, Poly] = {}
    for ia, ca in xi.terms.items():
        for ib, cb in eta.terms.items():
            sorted_indices = _sort_indices(ia + ib)
            if sorted_indices is None:
                continue
            key, sign = sorted_indices
            piece = ca * cb if sign > 0 else -(ca * cb)
            out[key] = out[key] + piece if key in out else piece
    return Polyvector._from_canonical(degree, xi.variables, out)


def _odd_derivative(xi: Polyvector, i: int) -> Polyvector:
    """Left derivative with respect to the odd symbol @x_i."""
    out: Dict[IndexTuple, Poly] = {}
    for indices, coeff in xi.terms.items():
        if i not in indices:
            continue
        position = indices.index(i)
        reduced = indices[:position] + indices[position + 1:]
        piece = coeff if position % 2 == 0 else -coeff
        out[reduced] = out[reduced] + piece if reduced in out else piece
    return Polyvector._from_canonical(max(xi.degree - 1, 0), xi.variables, out)


def _odd_laplacian(xi: Polyvector) -> Polyvector:
    """The second-order operator sum_i d/dx_i d/d@x_i, lowering degree by one."""
    total = Polyvector.zero(max(xi.degree - 1, 0), xi.variables)
    for i, name in enumerate(xi.variables):
        piece = _odd_derivative(xi, i).map_coefficients(lambda c, v=name: c.diff(v))
        if not piece.is_zero():
            total = total + piece
    return total


def schouten(xi: Polyvector, eta: Polyvector) -> Polyvector:
    """Graded Schouten-Nijenhuis bracket of polyvector fields.

    Degrees (j, k) map to j + k - 1.  Computed as the deviation of the odd
    Laplacian D = sum_i d/dx_i d/d@x_i from being a derivation of the wedge,

        [xi, eta] = (-1)^(j-1) (D(xi^eta) - D(xi)^eta - (-1)^j xi^D(eta)),

    which makes graded antisymmetry and the graded Jacobi identity automatic
    (D squares to zero).  The overall sign is pinned by
    [@x^@y^@z, f] = contraction of the volume with df; see module docstring.
    Antisymmetry: [xi, eta] = -(-1)^((j-1)(k-1)) [eta, xi].
    """
    xi._check(eta)
    j = xi.degree
    if j + eta.degree == 0:
        return Polyvector.zero(0, xi.variables)
    first = wedge(_odd_laplacian(xi), eta)
    deviation = _odd_laplacian(wedge(xi, eta)) - first
    # xi^D(xi) = (-1)^(j(j-1)) D(xi)^xi, and j(j-1) is even
    mixed = first if eta is xi else wedge(xi, _odd_laplacian(eta))
    deviation = deviation - mixed if j % 2 == 0 else deviation + mixed
    result = deviation if (j - 1) % 2 == 0 else deviation.scale(-1)
    if result.is_zero():
        return Polyvector.zero(max(j + eta.degree - 1, 0), xi.variables)
    return result


def interior_product_df(f: Poly, xi: Polyvector) -> Polyvector:
    """Contraction of xi with the exact one-form df (equals [xi, f])."""
    return schouten(xi, Polyvector.from_poly(f))


def jacobian_poisson(f: Poly) -> Polyvector:
    """The bivector f_x @y^@z + f_y @z^@x + f_z @x^@y on a three-variable chart.

    Equals the Schouten bracket of the coordinate volume with f, and always
    satisfies the Poisson condition.
    """
    if len(f.variables) != 3:
        raise ValueError(f"Jacobian bivector needs exactly 3 variables, got {f.variables}")
    return schouten(Polyvector.volume(f.variables), Polyvector.from_poly(f))


def is_poisson(sigma: Polyvector) -> Tuple[bool, Polyvector]:
    """Whether [sigma, sigma] vanishes, with the bracket as certificate.

    When the coefficients carry a truncation cap the verdict is "Poisson to
    the stated order": the certificate is zero modulo the cap.
    """
    if sigma.degree != 2 and not sigma.is_zero():
        raise ValueError("the Poisson condition applies to bivectors")
    certificate = schouten(sigma, sigma)
    return certificate.is_zero(), certificate


def is_tangent(xi: Polyvector, f: Poly) -> bool:
    """Whether every coefficient of the contraction of xi with df is divisible by f."""
    if f.is_zero():
        raise ValueError("tangency to the zero polynomial is undefined")
    contraction = interior_product_df(f, xi)
    return all(divides(f, coeff) is not None for coeff in contraction.terms.values())


@dataclass(frozen=True)
class CoordinateChange:
    """A change of coordinates: a sequence of elementary steps, applied in order.

    Each step is ``(name, image)``: ``name`` is replaced by ``image``, which
    is a shear name + s with s free of ``name``, or a scaling c*name with
    c != 0, so every step is an automorphism.  Calling the change on a
    function substitutes the steps in turn.  A bivector is transported to the
    chart of the new coordinate u = (``name`` - s)/c: its brackets are
    computed from the old ones and then substituted, so that the change of
    jacobian_poisson(f) equals jacobian_poisson of the changed f divided by
    the Jacobian determinant of the change (one for shears, c for a
    scaling).  Changes compose by ``+``, the left one first.
    """

    steps: Tuple[Tuple[str, Poly], ...]

    @classmethod
    def shear(cls, name: str, shift: Poly) -> "CoordinateChange":
        """The step ``name`` -> ``name`` + ``shift``, none for a zero shift;
        ``shift`` may not involve ``name``."""
        if shift.degree_in(name) > 0:
            raise ValueError(f"shift may not involve the sheared variable {name!r}")
        return cls(() if shift.is_zero() else ((name, Poly.var(shift.variables, name) + shift),))

    @classmethod
    def scaling(cls, variables: Sequence[str], name: str,
                c: Union[int, Fraction]) -> "CoordinateChange":
        """The step ``name`` -> c*``name``, c != 0."""
        if c == 0:
            raise ValueError("a scaling needs a nonzero factor")
        return cls(((name, Poly.var(variables, name).scale(c)),))

    def __add__(self, other: "CoordinateChange") -> "CoordinateChange":
        return CoordinateChange(self.steps + other.steps)

    def lines(self) -> List[str]:
        """Each step as 'name -> image'."""
        return [f"{name} -> {image}" for name, image in self.steps]

    def __str__(self) -> str:
        return ", ".join(self.lines())

    def __call__(self, value: Union[Poly, Polyvector]) -> Union[Poly, Polyvector]:
        for name, image in self.steps:
            if image.variables != value.variables:
                raise ValueError("coordinate change chart does not match")
            value = _transport(value, name, image)
        return value


def _transport(value: Union[Poly, Polyvector], name: str,
               image: Poly) -> Union[Poly, Polyvector]:
    """One step ``name`` -> ``image`` = c*``name`` + s of a CoordinateChange."""
    if isinstance(value, Poly):
        return value.substitute({name: image})
    if value.degree != 2:
        raise ValueError("coordinate changes transport functions and bivectors")
    variables, index = value.variables, value.variables.index(name)
    c = image.diff(name).constant_term()
    shift = image - Poly.var(variables, name).scale(c)
    slopes = [(m, d) for m, d in ((m, shift.diff(v)) for m, v in enumerate(variables)) if d.nums]

    def bracket(k: int, l: int) -> Poly:
        """{u_k, u_l} in the old coordinates; only u_index differs from x_index."""
        total = value.bracket_of_coordinates(k, l)
        if index not in (k, l):
            return total
        for m, d in slopes:
            total = total - d * (value.bracket_of_coordinates(m, l) if k == index
                                 else value.bracket_of_coordinates(k, m))
        return total if c == 1 else total.scale(1 / c)

    terms = {(k, l): bracket(k, l).substitute({name: image})
             for k in range(len(variables)) for l in range(k + 1, len(variables))}
    return Polyvector(2, variables, terms)


# ---------------------------------------------------------------------------
# linearization at a point and 3d Lie algebra classification
# ---------------------------------------------------------------------------

ABELIAN = "abelian"
HEISENBERG = "heisenberg"
SPLIT_NONABELIAN = "split_nonabelian"
OTHER = "other"

Lie3Class = str

_BASIS = tuple(tuple(Fraction(int(i == k)) for k in range(3)) for i in range(3))


@dataclass(frozen=True)
class LieAlgebra3:
    """A 3-dimensional Lie algebra by structure constants c[k][(i,j)] with i < j.

    brackets[(i, j)][k] is the e_k-component of [e_i, e_j].  The Jacobi
    identity is validated exactly at construction time.
    """

    brackets: Tuple[Tuple[Fraction, Fraction, Fraction], ...]  # for (0,1), (0,2), (1,2)

    PAIRS = ((0, 1), (0, 2), (1, 2))

    def __post_init__(self):
        if len(self.brackets) != 3 or any(len(b) != 3 for b in self.brackets):
            raise ValueError("expected three bracket vectors of length three")
        if not self._jacobi_holds():
            raise ValueError("structure constants violate the Jacobi identity")

    def bracket_vector(self, i: int, j: int) -> Tuple[Fraction, ...]:
        if i == j:
            return (Fraction(0),) * 3
        if i < j:
            return self.brackets[self.PAIRS.index((i, j))]
        return tuple(-c for c in self.brackets[self.PAIRS.index((j, i))])

    def bracket(self, u: Sequence[Fraction], v: Sequence[Fraction]) -> Tuple[Fraction, ...]:
        out = [Fraction(0)] * 3
        for i in range(3):
            for j in range(3):
                if u[i] == 0 or v[j] == 0:
                    continue
                for k, c in enumerate(self.bracket_vector(i, j)):
                    out[k] += u[i] * v[j] * c
        return tuple(out)

    def _jacobi_holds(self) -> bool:
        """The Jacobiator is an alternating trilinear map, and in dimension
        three (e_0, e_1, e_2) spans the alternating triples: it decides."""
        total = [Fraction(0)] * 3
        for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            outer = self.bracket(_BASIS[a], self.bracket(_BASIS[b], _BASIS[c]))
            total = [t + o for t, o in zip(total, outer)]
        return not any(total)

    def derived_subalgebra_dim(self) -> int:
        pivots: Dict[int, Dict[int, int]] = {}
        for b in self.brackets:
            scale = lcm(*(c.denominator for c in b))
            insert_row(pivots, {k: c.numerator * (scale // c.denominator)
                                for k, c in enumerate(b) if c})
        return len(pivots)

    def classify(self) -> Lie3Class:
        """Basis-independent class via dim[g,g] and the lower central series.

        When [g,g] is spanned by one vector v, the series continues with
        [g,v], which is 0 or span(v); so g is nilpotent exactly when v is
        central.
        """
        derived_dim = self.derived_subalgebra_dim()
        if derived_dim == 0:
            return ABELIAN
        if derived_dim >= 2:
            return OTHER
        v = next(b for b in self.brackets if any(b))
        if not any(any(self.bracket(e, v)) for e in _BASIS):
            return HEISENBERG
        return SPLIT_NONABELIAN


def linearize(sigma: Polyvector, point: Point) -> Tuple[LieAlgebra3, Lie3Class]:
    """Linear part of a bivector vanishing at ``point`` as a 3d Lie algebra.

    The structure constants are read off the conormal bracket
    [dx_i, dx_j] = d{x_i, x_j}: the e_k-coefficient is the x_k-coefficient of
    the linear part of {x_i, x_j} after recentring at the point.
    """
    if sigma.degree != 2 or len(sigma.variables) != 3:
        raise ValueError("linearization requires a bivector on a 3-variable chart")
    centred = sigma.translate(point)
    if not centred.vanishes_at(tuple(Fraction(0) for _ in range(3))):
        raise ValueError(f"bivector does not vanish at {point}")
    brackets = []
    for i, j in LieAlgebra3.PAIRS:
        coeff = centred.bracket_of_coordinates(i, j)
        row = []
        for k in range(3):
            unit = tuple(1 if m == k else 0 for m in range(3))
            row.append(coeff.terms.get(unit, Fraction(0)))
        brackets.append(tuple(row))
    algebra = LieAlgebra3(tuple(brackets))
    return algebra, algebra.classify()


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def parse_polyvector(text: str, variables: Sequence[str],
                     tokens: Optional[Sequence[Tuple[str, str, int]]] = None) -> Polyvector:
    """Parse polyvector text such as ``2*x*@y^@z - y^2*@x^@y``.

    The result must be degree-homogeneous; mixed-degree input is rejected
    (callers decompose by degree).  ``tokens``, when given, is
    ``tokenize(text)`` computed by the caller.
    """
    variables = tuple(variables)
    if tokens is None:
        tokens = tokenize(text)
    parsed = _ExprParser(tokens, variables, allow_wedge=True).parse()
    degrees = {len(wedge_indices) for _, wedge_indices in parsed}
    if len(degrees) > 1:
        raise ValueError(f"mixed-degree polyvector (degrees {sorted(degrees)}); "
                         "decompose by degree")
    degree = degrees.pop() if degrees else 0
    total = Polyvector.zero(degree, variables)
    for coeff, wedge_indices in parsed:
        sorted_indices = _sort_indices(wedge_indices)
        if sorted_indices is None:
            continue
        key, sign = sorted_indices
        piece = Polyvector(degree, variables, {key: coeff if sign > 0 else -coeff})
        total = total + piece
    return total
