"""Exact arithmetic foundation: rationals extended by infinity, sparse
multivariate polynomials over Q, truncated power series, and the expression
parser.

A polynomial is stored as a dictionary mapping exponent tuples to nonzero
``Fraction`` coefficients:

    Poly.terms = {(2, 0, 0): Fraction(1), (0, 2, 1): Fraction(-1)}   # x^2 - y^2*z

The zero polynomial has an empty dictionary.  All arithmetic is exact; no
floating point is used anywhere in the package.

A polynomial may carry a truncation cap N, in which case it represents a
residue modulo terms of total degree >= N (a truncated power series).  Every
operation propagates the minimum cap of its operands, and derivatives lower
the cap by one.

Expression grammar (whitespace insignificant)::

    expr     := ['+'|'-'] term (('+'|'-') term)*
    term     := factor ('*' factor)*
    factor   := base ('^' uint)? | wedge
    base     := rational | var | '(' expr ')'
    rational := uint ('/' uint)?
    var      := letter (letter|digit|'_')*
    wedge    := '@' var ('^' '@' var)*        -- polyvector syntax, see polyvector module

Implicit multiplication is rejected: ``2x`` is a syntax error, write ``2*x``.
A leading sign on the first term is accepted so that printed output re-parses.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _int_gcd
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

MAX_VARIABLES = 8
# largest power the parser expands: (x + y + z)^64 already has 2145 terms
MAX_EXPONENT = 64

Exponent = Tuple[int, ...]
Point = Tuple[Fraction, ...]


class ParseError(ValueError):
    """Syntax or name error in an expression, with the byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


# ---------------------------------------------------------------------------
# extended rationals
# ---------------------------------------------------------------------------

class Infinity:
    """The single point at infinity adjoined to the non-negative rationals.

    Infinity absorbs addition, subtraction of finite values, and
    multiplication by positive values, and compares greater than every
    Fraction.  Products with zero are deliberately not defined; the
    reciprocal convention 1/inf = 0 and 1/0 = inf used for weights and
    exponents lives in :func:`ext_reciprocal` only.
    """

    _instance: Optional["Infinity"] = None

    def __new__(cls) -> "Infinity":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "inf"

    def __eq__(self, other: object) -> bool:
        return other is self

    def __hash__(self) -> int:
        return hash("wblow-infinity")

    def __lt__(self, other: object) -> bool:
        return False

    def __le__(self, other: object) -> bool:
        return other is self

    def __gt__(self, other: object) -> bool:
        return other is not self

    def __ge__(self, other: object) -> bool:
        return True

    def __add__(self, other: object) -> "Infinity":
        return self

    __radd__ = __add__

    def __sub__(self, other: object) -> "Infinity":
        if other is self:
            raise ArithmeticError("inf - inf is undefined")
        return self

    def __mul__(self, other: object) -> "Infinity":
        if other is self:
            return self
        if isinstance(other, (int, Fraction)) and other > 0:
            return self
        raise ArithmeticError(f"inf * {other!r} is undefined")

    __rmul__ = __mul__

    def __neg__(self) -> "Infinity":
        raise ArithmeticError("negative infinity is not modelled")


INF = Infinity()
ExtRational = Union[Fraction, Infinity]


def is_infinite(a: ExtRational) -> bool:
    return a is INF


def ext_reciprocal(a: ExtRational) -> ExtRational:
    """Reciprocal with the weight/exponent convention 1/inf = 0, 1/0 = inf."""
    if a is INF:
        return Fraction(0)
    if a == 0:
        return INF
    return Fraction(1) / a


def fraction_gcd(values: Iterable[Fraction]) -> Fraction:
    """Greatest common divisor of fractions: gcd(a/b, c/d) = gcd(ad, cb)/bd."""
    num, den = 0, 1
    for v in values:
        num, den = _int_gcd(num * v.denominator, v.numerator * den), den * v.denominator
        g = _int_gcd(num, den)
        num, den = num // g, den // g
    if num == 0:
        raise ValueError("gcd of an all-zero weight sequence")
    return Fraction(num, den)


def format_ext(a: ExtRational) -> str:
    """Render a value as "p/q", "p", or "inf" for machine output."""
    if a is INF:
        return "inf"
    return str(a)


def parse_ext(text: str) -> ExtRational:
    text = text.strip()
    if text == "inf":
        return INF
    return Fraction(text)


# ---------------------------------------------------------------------------
# sparse polynomials
# ---------------------------------------------------------------------------

def _grlex_key(exponent: Exponent) -> Tuple:
    return (sum(exponent), exponent)


class Poly:
    """Sparse multivariate polynomial with exact rational coefficients.

    Instances are immutable by convention: no public method mutates ``terms``.
    Two polynomials can be combined only when their variable tuples agree.
    """

    __slots__ = ("variables", "terms", "cap")

    def __init__(
        self,
        variables: Sequence[str],
        terms: Mapping[Exponent, Union[int, Fraction]],
        cap: Optional[int] = None,
    ):
        variables = tuple(variables)
        if len(variables) > MAX_VARIABLES:
            raise ValueError(f"chart dimension {len(variables)} exceeds {MAX_VARIABLES}")
        if len(set(variables)) != len(variables):
            raise ValueError(f"duplicate variable names in {variables}")
        clean: Dict[Exponent, Fraction] = {}
        for exponent, coeff in terms.items():
            exponent = tuple(exponent)
            if len(exponent) != len(variables):
                raise ValueError(f"exponent {exponent} has wrong length for {variables}")
            if any(e < 0 for e in exponent):
                raise ValueError(f"negative exponent in {exponent}")
            if cap is not None and sum(exponent) >= cap:
                continue
            coeff = Fraction(coeff)
            if coeff != 0:
                clean[exponent] = coeff
        self.variables = variables
        self.terms = clean
        self.cap = cap

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, variables: Sequence[str], cap: Optional[int] = None) -> "Poly":
        return cls(variables, {}, cap)

    @classmethod
    def const(cls, variables: Sequence[str], value: Union[int, Fraction],
              cap: Optional[int] = None) -> "Poly":
        n = len(tuple(variables))
        return cls(variables, {(0,) * n: Fraction(value)}, cap)

    @classmethod
    def var(cls, variables: Sequence[str], name: str, cap: Optional[int] = None) -> "Poly":
        variables = tuple(variables)
        if name not in variables:
            raise ValueError(f"unknown variable {name!r} for chart {variables}")
        exponent = tuple(1 if v == name else 0 for v in variables)
        return cls(variables, {exponent: Fraction(1)}, cap)

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * len(self.variables), Fraction(0))

    def total_degree(self) -> int:
        """Maximum total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def min_total_degree(self) -> int:
        """Order of vanishing at the origin (unweighted); -1 for zero."""
        if not self.terms:
            return -1
        return min(sum(e) for e in self.terms)

    def degree_in(self, name: str) -> int:
        i = self._index(name)
        if not self.terms:
            return -1
        return max(e[i] for e in self.terms)

    def _index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise ValueError(f"unknown variable {name!r} for chart {self.variables}") from None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return (self.variables == other.variables and self.terms == other.terms
                and self.cap == other.cap)

    def __hash__(self) -> int:
        return hash((self.variables, frozenset(self.terms.items()), self.cap))

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other: Union["Poly", int, Fraction]) -> "Poly":
        if isinstance(other, Poly):
            if other.variables != self.variables:
                raise ValueError(
                    f"variable lists differ: {self.variables} vs {other.variables}")
            return other
        return Poly.const(self.variables, other)

    @staticmethod
    def _min_cap(a: Optional[int], b: Optional[int]) -> Optional[int]:
        if a is None:
            return b
        if b is None:
            return a
        return min(a, b)

    def __add__(self, other: Union["Poly", int, Fraction]) -> "Poly":
        other = self._coerce(other)
        out = dict(self.terms)
        for exponent, coeff in other.terms.items():
            out[exponent] = out.get(exponent, Fraction(0)) + coeff
        return Poly(self.variables, out, self._min_cap(self.cap, other.cap))

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly(self.variables, {e: -c for e, c in self.terms.items()}, self.cap)

    def __sub__(self, other: Union["Poly", int, Fraction]) -> "Poly":
        return self + (-self._coerce(other))

    def __rsub__(self, other: Union[int, Fraction]) -> "Poly":
        return self._coerce(other) - self

    def __mul__(self, other: Union["Poly", int, Fraction]) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        other = self._coerce(other)
        cap = self._min_cap(self.cap, other.cap)
        out: Dict[Exponent, Fraction] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                exponent = tuple(x + y for x, y in zip(ea, eb))
                if cap is not None and sum(exponent) >= cap:
                    continue
                out[exponent] = out.get(exponent, Fraction(0)) + ca * cb
        return Poly(self.variables, out, cap)

    def __rmul__(self, other: Union[int, Fraction]) -> "Poly":
        return self.scale(other)

    def scale(self, value: Union[int, Fraction]) -> "Poly":
        value = Fraction(value)
        return Poly(self.variables, {e: c * value for e, c in self.terms.items()}, self.cap)

    def __pow__(self, exponent: int) -> "Poly":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"polynomial power must be a non-negative integer, got {exponent}")
        result = Poly.const(self.variables, 1, self.cap)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base if exponent > 1 else base
            exponent >>= 1
        return result

    # -- calculus and substitution ------------------------------------------

    def diff(self, name: str) -> "Poly":
        """Formal partial derivative.  Lowers a truncation cap by one."""
        i = self._index(name)
        out: Dict[Exponent, Fraction] = {}
        for exponent, coeff in self.terms.items():
            if exponent[i] == 0:
                continue
            reduced = exponent[:i] + (exponent[i] - 1,) + exponent[i + 1:]
            out[reduced] = out.get(reduced, Fraction(0)) + coeff * exponent[i]
        cap = None if self.cap is None else max(self.cap - 1, 0)
        return Poly(self.variables, out, cap)

    def substitute(self, images: Mapping[str, "Poly"]) -> "Poly":
        """Compose with the assignment ``name -> Poly``.

        Unassigned variables must appear, under the same name, in the common
        variable list of the images.  When self carries a truncation cap the
        images must vanish at the origin for the cap to stay meaningful.
        """
        if not images:
            return self
        target: Optional[Tuple[str, ...]] = None
        cap = self.cap
        for name, image in images.items():
            self._index(name)
            if target is None:
                target = image.variables
            elif image.variables != target:
                raise ValueError("images of a substitution must share one variable list")
            cap = self._min_cap(cap, image.cap)
        assert target is not None
        full: Dict[str, Poly] = {}
        for v in self.variables:
            if v in images:
                full[v] = images[v]
            else:
                full[v] = Poly.var(target, v)  # raises if v is not a target variable
        if self.cap is not None:
            for name, image in images.items():
                if image.constant_term() != 0:
                    raise ValueError(
                        f"cannot substitute {name} -> series with constant term "
                        "into a truncated polynomial")
        result = Poly.zero(target, cap)
        powers: Dict[Tuple[str, int], Poly] = {}

        def power(v: str, k: int) -> Poly:
            key = (v, k)
            if key not in powers:
                powers[key] = full[v] ** k
            return powers[key]

        for exponent, coeff in self.terms.items():
            term = Poly.const(target, coeff, cap)
            for v, k in zip(self.variables, exponent):
                if k:
                    term = term * power(v, k)
            result = result + term
        return result

    def translate(self, point: Sequence[Union[int, Fraction]]) -> "Poly":
        """Recentre at ``point``: substitute x_i -> x_i + p_i."""
        point = tuple(Fraction(p) for p in point)
        if len(point) != len(self.variables):
            raise ValueError("point length does not match chart")
        if all(p == 0 for p in point):
            return self
        images = {
            v: Poly.var(self.variables, v) + Poly.const(self.variables, p)
            for v, p in zip(self.variables, point) if p != 0
        }
        return self.substitute(images)

    def evaluate(self, point: Sequence[Union[int, Fraction]]) -> Fraction:
        point = tuple(Fraction(p) for p in point)
        if len(point) != len(self.variables):
            raise ValueError("point length does not match chart")
        total = Fraction(0)
        for exponent, coeff in self.terms.items():
            value = coeff
            for p, k in zip(point, exponent):
                if k:
                    value *= p ** k
            total += value
        return total

    def coefficients_in(self, name: str) -> List["Poly"]:
        """Coefficient list [c_0, ..., c_d] of self viewed in K[others][name]."""
        i = self._index(name)
        rest = self.variables[:i] + self.variables[i + 1:]
        d = max((e[i] for e in self.terms), default=0)
        coeffs: List[Dict[Exponent, Fraction]] = [dict() for _ in range(d + 1)]
        for exponent, coeff in self.terms.items():
            reduced = exponent[:i] + exponent[i + 1:]
            coeffs[exponent[i]][reduced] = coeff
        return [Poly(rest, c, self.cap) for c in coeffs]

    def drop_variables(self, names: Sequence[str]) -> "Poly":
        """Forget variables that do not occur in any term."""
        drop = set(names)
        indices = [i for i, v in enumerate(self.variables) if v not in drop]
        for exponent in self.terms:
            for i, v in enumerate(self.variables):
                if v in drop and exponent[i] != 0:
                    raise ValueError(f"variable {v!r} still occurs; cannot drop it")
        new_vars = tuple(self.variables[i] for i in indices)
        new_terms = {tuple(e[i] for i in indices): c for e, c in self.terms.items()}
        return Poly(new_vars, new_terms, self.cap)

    def extend_variables(self, variables: Sequence[str]) -> "Poly":
        """Re-express on a larger chart containing every current variable."""
        variables = tuple(variables)
        positions = [variables.index(v) for v in self.variables]
        n = len(variables)
        out: Dict[Exponent, Fraction] = {}
        for exponent, coeff in self.terms.items():
            new = [0] * n
            for pos, e in zip(positions, exponent):
                new[pos] = e
            out[tuple(new)] = coeff
        return Poly(variables, out, self.cap)

    def with_cap(self, cap: Optional[int]) -> "Poly":
        return Poly(self.variables, self.terms, cap)

    # -- printing ------------------------------------------------------------

    def _sorted_terms(self) -> List[Tuple[Exponent, Fraction]]:
        return sorted(self.terms.items(), key=lambda t: _grlex_key(t[0]), reverse=True)

    def __repr__(self) -> str:
        return f"Poly({self})"

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces: List[str] = []
        for exponent, coeff in self._sorted_terms():
            factors: List[str] = []
            for v, k in zip(self.variables, exponent):
                if k == 1:
                    factors.append(v)
                elif k > 1:
                    factors.append(f"{v}^{k}")
            magnitude = abs(coeff)
            if not factors or magnitude != 1:
                factors.insert(0, str(magnitude))
            body = "*".join(factors)
            if not pieces:
                pieces.append(body if coeff > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(pieces)


# ---------------------------------------------------------------------------
# exact sparse row reduction
# ---------------------------------------------------------------------------

def insert_row(pivots: Dict[Exponent, Dict[Exponent, Fraction]],
               row: Dict[Exponent, Fraction]) -> None:
    """Reduce a sparse row against echelon pivots and keep what is left.

    Rows map exponents to nonzero coefficients; each pivot is stored under its
    graded-lexicographic leading exponent.  ``row`` is consumed.  After every
    insertion ``len(pivots)`` is the rank of the rows inserted so far.
    """
    while row:
        lead = max(row, key=_grlex_key)
        pivot = pivots.get(lead)
        if pivot is None:
            pivots[lead] = row
            return
        factor = row[lead] / pivot[lead]
        for exponent, coeff in pivot.items():
            new = row.get(exponent, Fraction(0)) - factor * coeff
            if new == 0:
                row.pop(exponent, None)
            else:
                row[exponent] = new


# ---------------------------------------------------------------------------
# division, resultants, rational roots
# ---------------------------------------------------------------------------

def divides(f: Poly, g: Poly) -> Optional[Poly]:
    """Return q with g = f*q when the division is exact, else None.

    Single-divisor division with the graded-lexicographic leading term: the
    remainder it produces has no term divisible by the leading term of f, so
    it vanishes exactly when f divides g.
    """
    if f.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if g.variables != f.variables:
        raise ValueError(f"variable lists differ: {f.variables} vs {g.variables}")
    lead_exp = max(f.terms, key=_grlex_key)
    lead_coeff = f.terms[lead_exp]
    quotient: Dict[Exponent, Fraction] = {}
    remainder = dict(g.terms)
    while remainder:
        exponent = max(remainder, key=_grlex_key)
        diff = tuple(a - b for a, b in zip(exponent, lead_exp))
        if any(d < 0 for d in diff):
            return None
        factor = remainder[exponent] / lead_coeff
        quotient[diff] = factor
        for fe, fc in f.terms.items():
            target = tuple(a + b for a, b in zip(diff, fe))
            new = remainder.get(target, Fraction(0)) - factor * fc
            if new == 0:
                remainder.pop(target, None)
            else:
                remainder[target] = new
    return Poly(f.variables, quotient, Poly._min_cap(f.cap, g.cap))


def _determinant(matrix: List[List[Poly]], variables: Tuple[str, ...]) -> Poly:
    """Exact determinant of a matrix of polynomials, by fraction-free Bareiss."""
    n = len(matrix)
    if n == 0:
        return Poly.const(variables, 1)
    m = [row[:] for row in matrix]
    sign = 1
    previous = Poly.const(variables, 1)
    for k in range(n - 1):
        if m[k][k].is_zero():
            pivot_row = next((r for r in range(k + 1, n) if not m[r][k].is_zero()), None)
            if pivot_row is None:
                return Poly.zero(variables)
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                numerator = m[k][k] * m[i][j] - m[i][k] * m[k][j]
                quotient = divides(previous, numerator) if not previous.is_zero() else None
                if quotient is None:
                    raise ArithmeticError("Bareiss division failed; non-exact step")
                m[i][j] = quotient
            m[i][k] = Poly.zero(variables)
        previous = m[k][k]
    result = m[n - 1][n - 1]
    return result.scale(sign) if sign < 0 else result


def resultant(f: Poly, g: Poly, name: str) -> Poly:
    """Determinant of the Sylvester matrix in ``name``, f-coefficient rows first.

    The result is a polynomial in the remaining variables.  Sign convention:
    with f-rows first, res_y(y^2 - x^3, 2*y) = -4*x^3 and
    res_y(y - x, y + x) = 2*x; tests pin these values.  For an input of
    degree zero in ``name`` the convention res(f, g) = g^deg(f)
    (respectively f^deg(g)) applies.
    """
    if f.is_zero() or g.is_zero():
        raise ValueError("resultant of the zero polynomial")
    fc = f.coefficients_in(name)
    gc = g.coefficients_in(name)
    m, n = len(fc) - 1, len(gc) - 1
    rest = fc[0].variables
    if m == 0 and n == 0:
        return Poly.const(rest, 1)
    if m == 0:
        return fc[0] ** n
    if n == 0:
        return gc[0] ** m
    size = m + n
    zero = Poly.zero(rest)
    matrix: List[List[Poly]] = []
    for shift in range(n):
        row = [zero] * size
        for j, c in enumerate(reversed(fc)):
            row[shift + j] = c
        matrix.append(row)
    for shift in range(m):
        row = [zero] * size
        for j, c in enumerate(reversed(gc)):
            row[shift + j] = c
        matrix.append(row)
    return _determinant(matrix, rest)


def _univariate_coeffs(f: Poly) -> List[Fraction]:
    """Coefficient list of a univariate polynomial, constant term first."""
    if len(f.variables) != 1:
        raise ValueError(f"expected a univariate polynomial, got chart {f.variables}")
    d = f.total_degree()
    coeffs = [Fraction(0)] * (d + 1)
    for exponent, coeff in f.terms.items():
        coeffs[exponent[0]] = coeff
    return coeffs


def rational_roots(f: Poly) -> List[Fraction]:
    """All rational roots of a nonzero univariate polynomial, with multiplicity.

    Works on the primitive integer form via the rational root theorem, then
    deflates by synthetic division to count multiplicities.
    """
    if f.is_zero():
        raise ValueError("rational_roots of the zero polynomial")
    coeffs = _univariate_coeffs(f)
    roots: List[Fraction] = []
    while len(coeffs) > 1 and coeffs[0] == 0:
        roots.append(Fraction(0))
        coeffs = coeffs[1:]
    if len(coeffs) <= 1:
        return sorted(roots)
    denominator_lcm = 1
    for c in coeffs:
        denominator_lcm = denominator_lcm * c.denominator // _int_gcd(denominator_lcm, c.denominator)
    integers = [int(c * denominator_lcm) for c in coeffs]
    content = 0
    for c in integers:
        content = _int_gcd(content, abs(c))
    integers = [c // content for c in integers]

    def divisors(n: int) -> List[int]:
        n = abs(n)
        out = [d for d in range(1, n + 1) if n % d == 0]
        return out

    candidates = {Fraction(p * s, q)
                  for p in divisors(integers[0])
                  for q in divisors(integers[-1])
                  for s in (1, -1)}

    def horner(cs: List[Fraction], r: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(cs):
            acc = acc * r + c
        return acc

    def deflate(cs: List[Fraction], r: Fraction) -> List[Fraction]:
        out = [Fraction(0)] * (len(cs) - 1)
        acc = Fraction(0)
        for i in range(len(cs) - 1, 0, -1):
            acc = cs[i] + acc * r
            out[i - 1] = acc
        return out

    work = [Fraction(c) for c in integers]
    for r in sorted(candidates):
        while len(work) > 1 and horner(work, r) == 0:
            roots.append(r)
            work = deflate(work, r)
    return sorted(roots)


def univariate_gcd(f: Poly, g: Poly) -> Poly:
    """Monic gcd of two univariate polynomials by the Euclidean algorithm."""
    if f.variables != g.variables or len(f.variables) != 1:
        raise ValueError("univariate_gcd expects two polynomials in one shared variable")
    a, b = _univariate_coeffs(f), _univariate_coeffs(g)

    def trim(cs: List[Fraction]) -> List[Fraction]:
        while cs and cs[-1] == 0:
            cs.pop()
        return cs

    a, b = trim(a[:]), trim(b[:])
    while b:
        while len(a) >= len(b):
            factor = a[-1] / b[-1]
            shift = len(a) - len(b)
            for i, c in enumerate(b):
                a[i + shift] -= factor * c
            a = trim(a)
            if not a:
                break
        a, b = b, a
    if not a:
        return Poly.zero(f.variables)
    lead = a[-1]
    return Poly(f.variables, {(i,): c / lead for i, c in enumerate(a)})


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

_TOKEN_SYMBOLS = "+-*^()/:@,"


def tokenize(text: str) -> List[Tuple[str, str, int]]:
    """Split an expression into (kind, value, offset) tokens.

    Kinds: 'int', 'name', or one of the literal symbols.
    """
    tokens: List[Tuple[str, str, int]] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            if j < len(text) and (text[j].isalpha() or text[j] == "_"):
                raise ParseError("implicit multiplication is not supported", j)
            tokens.append(("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        if ch in _TOKEN_SYMBOLS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", len(text)))
    return tokens


class _ExprParser:
    """Recursive-descent parser shared by the polynomial and polyvector readers.

    Terms are accumulated as (coefficient Poly, wedge index list) pairs; a
    plain polynomial parse rejects any '@' token.
    """

    def __init__(self, text: str, variables: Sequence[str], allow_wedge: bool):
        self.text = text
        self.variables = tuple(variables)
        self.allow_wedge = allow_wedge
        self.tokens = tokenize(text)
        self.pos = 0

    def peek(self) -> Tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> Tuple[str, str, int]:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect(self, kind: str) -> Tuple[str, str, int]:
        token = self.advance()
        if token[0] != kind:
            raise ParseError(f"expected {kind!r}, found {token[1]!r}", token[2])
        return token

    def parse(self) -> List[Tuple[Poly, List[int]]]:
        terms = self.parse_expr()
        token = self.peek()
        if token[0] != "end":
            raise ParseError(f"unexpected trailing input {token[1]!r}", token[2])
        return terms

    def parse_expr(self) -> List[Tuple[Poly, List[int]]]:
        terms: List[Tuple[Poly, List[int]]] = []
        sign = Fraction(1)
        if self.peek()[0] in "+-":
            sign = Fraction(-1) if self.advance()[0] == "-" else Fraction(1)
        coeff, wedge = self.parse_term()
        terms.append((coeff.scale(sign), wedge))
        while self.peek()[0] in "+-":
            sign = Fraction(-1) if self.advance()[0] == "-" else Fraction(1)
            coeff, wedge = self.parse_term()
            terms.append((coeff.scale(sign), wedge))
        return terms

    def parse_term(self) -> Tuple[Poly, List[int]]:
        coeff, wedge = self.parse_factor()
        while self.peek()[0] == "*":
            self.advance()
            c2, w2 = self.parse_factor()
            coeff = coeff * c2
            wedge = wedge + w2
        return coeff, wedge

    def parse_factor(self) -> Tuple[Poly, List[int]]:
        token = self.peek()
        if token[0] == "@":
            return self.parse_wedge()
        base = self.parse_base()
        if self.peek()[0] == "^":
            self.advance()
            power_token = self.expect("int")
            exponent = int(power_token[1])
            if exponent > MAX_EXPONENT:
                raise ParseError(f"exponent {exponent} exceeds the limit {MAX_EXPONENT}",
                                 power_token[2])
            base = base ** exponent
        return base, []

    def parse_wedge(self) -> Tuple[Poly, List[int]]:
        if not self.allow_wedge:
            token = self.peek()
            raise ParseError("'@' is not allowed in a polynomial expression", token[2])
        indices = [self.parse_dvar()]
        while self.peek()[0] == "^":
            self.advance()
            indices.append(self.parse_dvar())
        return Poly.const(self.variables, 1), indices

    def parse_dvar(self) -> int:
        self.expect("@")
        token = self.expect("name")
        if token[1] not in self.variables:
            raise ParseError(f"unknown variable {token[1]!r}", token[2])
        return self.variables.index(token[1])

    def parse_base(self) -> Poly:
        token = self.advance()
        if token[0] == "int":
            numerator = int(token[1])
            if self.peek()[0] == "/":
                self.advance()
                denominator_token = self.expect("int")
                return Poly.const(self.variables,
                                  Fraction(numerator, int(denominator_token[1])))
            return Poly.const(self.variables, numerator)
        if token[0] == "name":
            if token[1] not in self.variables:
                raise ParseError(f"unknown variable {token[1]!r}", token[2])
            return Poly.var(self.variables, token[1])
        if token[0] == "(":
            terms = self.parse_expr()
            self.expect(")")
            for _, wedge in terms:
                if wedge:
                    raise ParseError("wedge symbols cannot be parenthesised", token[2])
            total = Poly.zero(self.variables)
            for coeff, _ in terms:
                total = total + coeff
            return total
        raise ParseError(f"unexpected token {token[1]!r}", token[2])


def parse_poly(text: str, variables: Sequence[str]) -> Poly:
    """Parse an expression into a canonical Poly over the given chart."""
    terms = _ExprParser(text, variables, allow_wedge=False).parse()
    total = Poly.zero(tuple(variables))
    for coeff, _ in terms:
        total = total + coeff
    return total
