"""Exact arithmetic foundation: rationals extended by infinity, sparse
multivariate polynomials over Q, truncated power series, and the expression
parser.

A polynomial is stored as integer numerators over one shared denominator:
a dictionary mapping exponent tuples to nonzero ints, and a positive int.

    Poly.nums = {(2, 0, 0): 2, (0, 2, 1): -1}, Poly.den = 3   # (2*x^2 - y^2*z)/3

``Poly.terms`` is a read-only view derived from them on each read, mapping
the same exponents to ``Fraction`` coefficients:
``{(2, 0, 0): Fraction(2, 3), (0, 2, 1): Fraction(-1, 3)}``.  The zero
polynomial has no numerators.  All arithmetic is exact; no floating point is
used anywhere in the package: a coefficient that is not an ``int`` or a
``Fraction`` is refused with ``TypeError``.

Canonical form.  Every ``Poly`` satisfies one invariant: ``variables`` is a
tuple of distinct names, every key of ``nums`` is a tuple of non-negative
ints of that length with total degree below the cap (when there is one),
every numerator is a nonzero int, ``den > 0`` and ``gcd(den, *nums) == 1``,
so ``den == 1`` for zero.  Equal polynomials therefore have equal fields,
and equality and hashing compare them.  ``Poly.__init__`` is the one
validating entry: it checks and normalises outside input.  The results of
``+``, ``-``, ``*``, ``**``, ``scale``, ``diff`` and ``substitute``, the
re-charted copies of ``with_cap``, ``extend_variables``, ``drop_variables``
and ``coefficients_in``, and ``var``, ``const`` and ``zero`` once the chart
is checked, are valid by construction and go through the trusted
``Poly._from_numerators``, which divides out the content shared with the
denominator, by one ``gcd``, only when ``den > 1``.  No Fraction is built in
these operations.

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

from collections import abc
from fractions import Fraction
from itertools import count
from math import comb, gcd as _int_gcd, isqrt, lcm, prod
from operator import add
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

MAX_VARIABLES = 8
# largest power the parser expands: (x + y + z)^64 already has 2145 terms
MAX_EXPONENT = 64
# largest number of terms a parsed product or power may reach, by the bound
# of _expansion_bound, checked before expanding it
MAX_TERMS = 1000

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


def _exact(value: Union[int, Fraction]) -> Fraction:
    """``value`` as a Fraction; anything but an int or a Fraction is refused."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"{value!r} is not an int or a Fraction; no floating point is used")


def _ratio(value: Union[int, Fraction]) -> Tuple[int, int]:
    """(numerator, denominator) of an int or a Fraction, read without building
    a Fraction; anything else is refused by :func:`_exact`."""
    if isinstance(value, int):
        return value, 1
    value = _exact(value)
    return value.numerator, value.denominator


def _clear_denominators(values: Iterable[Union[int, Fraction]]) -> Tuple[List[int], int]:
    """The integers d*v for the least common denominator d of ``values``, and d."""
    values = list(values)
    scale = lcm(*(v.denominator for v in values))
    if scale == 1:
        return [v.numerator for v in values], 1
    return [v.numerator * (scale // v.denominator) for v in values], scale


def _product(a: "Poly", b: "Poly", cap: Optional[int]) -> "Poly":
    """a*b truncated at ``cap``: integer numerators accumulated over the
    product of the two denominators.  A one-term factor only shifts
    exponents, injectively, and scales."""
    if len(b.nums) == 1:
        a, b = b, a
    den = a.den * b.den
    if len(a.nums) == 1:
        (ea, na), = a.nums.items()
        shifted = ((tuple(map(add, ea, eb)), nb) for eb, nb in b.nums.items())
        return Poly._from_numerators(
            a.variables,
            {e: nb if na == 1 else na * nb for e, nb in shifted
             if cap is None or sum(e) < cap},
            den, cap)
    right = list(b.nums.items())
    out: Dict[Exponent, int] = {}
    get = out.get
    for ea, na in a.nums.items():
        for eb, nb in right:
            exponent = tuple(map(add, ea, eb))
            if cap is not None and sum(exponent) >= cap:
                continue
            out[exponent] = get(exponent, 0) + na * nb
    return Poly._from_numerators(a.variables, {e: n for e, n in out.items() if n}, den, cap)


class _Terms(abc.Mapping):
    """The coefficients of a Poly as Fractions: a read-only view, derived
    from the integer numerators and the denominator on each read."""

    __slots__ = ("_nums", "_den")

    def __init__(self, nums: Dict[Exponent, int], den: int):
        self._nums = nums
        self._den = den

    def __getitem__(self, exponent: Exponent) -> Fraction:
        return Fraction(self._nums[exponent], self._den)

    def __iter__(self):
        return iter(self._nums)

    def __len__(self) -> int:
        return len(self._nums)

    def __contains__(self, exponent: object) -> bool:
        return exponent in self._nums

    def __repr__(self) -> str:
        return repr(dict(self.items()))


class Poly:
    """Sparse multivariate polynomial with exact rational coefficients.

    Instances are immutable by convention: no public method mutates ``nums``.
    Two polynomials can be combined only when their variable tuples agree.
    """

    __slots__ = ("variables", "nums", "den", "cap")

    def __init__(
        self,
        variables: Sequence[str],
        terms: Mapping[Exponent, Union[int, Fraction]],
        cap: Optional[int] = None,
    ):
        variables = Poly._chart(variables)
        clean: Dict[Exponent, Fraction] = {}
        for exponent, coeff in terms.items():
            exponent = tuple(exponent)
            if len(exponent) != len(variables):
                raise ValueError(f"exponent {exponent} has wrong length for {variables}")
            if any(e < 0 for e in exponent):
                raise ValueError(f"negative exponent in {exponent}")
            coeff = _exact(coeff)
            if cap is not None and sum(exponent) >= cap:
                continue
            if coeff != 0:
                clean[exponent] = coeff
        # canonical: no prime of the lcm of reduced denominators divides every numerator
        den = lcm(*(c.denominator for c in clean.values()))
        self.variables = variables
        self.nums = {e: c.numerator * (den // c.denominator) for e, c in clean.items()}
        self.den = den
        self.cap = cap

    @staticmethod
    def _chart(variables: Sequence[str]) -> Tuple[str, ...]:
        """``variables`` as a tuple, checked to be a valid chart."""
        variables = tuple(variables)
        if len(variables) > MAX_VARIABLES:
            raise ValueError(f"chart dimension {len(variables)} exceeds {MAX_VARIABLES}")
        if len(set(variables)) != len(variables):
            raise ValueError(f"duplicate variable names in {variables}")
        return variables

    # -- constructors ------------------------------------------------------

    @classmethod
    def _from_numerators(cls, variables: Tuple[str, ...], nums: Dict[Exponent, int],
                         den: int, cap: Optional[int]) -> "Poly":
        """The polynomial ``nums``/``den``, without checking the chart, the
        exponents or the cap (see the module docstring); ``nums`` holds no
        zero, ``den`` is positive, and ``nums`` is owned by the result.  The
        content shared by ``den`` and the numerators is divided out."""
        if den > 1:
            g = _int_gcd(den, *nums.values())
            if g > 1:
                den //= g
                nums = {e: n // g for e, n in nums.items()}
        self = object.__new__(cls)
        self.variables = variables
        self.nums = nums
        self.den = den
        self.cap = cap
        return self

    @classmethod
    def zero(cls, variables: Sequence[str], cap: Optional[int] = None) -> "Poly":
        return cls._from_numerators(cls._chart(variables), {}, 1, cap)

    @classmethod
    def const(cls, variables: Sequence[str], value: Union[int, Fraction],
              cap: Optional[int] = None) -> "Poly":
        variables = cls._chart(variables)
        num, den = _ratio(value)
        kept = num and (cap is None or cap > 0)
        return cls._from_numerators(variables, {(0,) * len(variables): num} if kept else {},
                                    den, cap)

    @classmethod
    def var(cls, variables: Sequence[str], name: str, cap: Optional[int] = None) -> "Poly":
        variables = cls._chart(variables)
        if name not in variables:
            raise ValueError(f"unknown variable {name!r} for chart {variables}")
        exponent = tuple(1 if v == name else 0 for v in variables)
        return cls._from_numerators(variables, {exponent: 1} if cap is None or cap > 1 else {},
                                    1, cap)

    # -- basic queries -----------------------------------------------------

    @property
    def terms(self) -> Mapping[Exponent, Fraction]:
        """The coefficients as Fractions, a read-only view of ``nums``/``den``."""
        return _Terms(self.nums, self.den)

    def is_zero(self) -> bool:
        return not self.nums

    def constant_term(self) -> Fraction:
        return Fraction(self.nums.get((0,) * len(self.variables), 0), self.den)

    def total_degree(self) -> int:
        """Maximum total degree; -1 for the zero polynomial."""
        if not self.nums:
            return -1
        return max(sum(e) for e in self.nums)

    def min_total_degree(self) -> int:
        """Order of vanishing at the origin (unweighted); -1 for zero."""
        if not self.nums:
            return -1
        return min(sum(e) for e in self.nums)

    def degree_in(self, name: str) -> int:
        i = self._index(name)
        if not self.nums:
            return -1
        return max(e[i] for e in self.nums)

    def _index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise ValueError(f"unknown variable {name!r} for chart {self.variables}") from None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return (self.variables == other.variables and self.den == other.den
                and self.nums == other.nums and self.cap == other.cap)

    def __hash__(self) -> int:
        return hash((self.variables, frozenset(self.nums.items()), self.den, self.cap))

    def __bool__(self) -> bool:
        return bool(self.nums)

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

    def _capped_nums(self, cap: Optional[int]) -> Dict[Exponent, int]:
        """The numerators of total degree below ``cap``, a cap no larger than
        self's; self's own dictionary when nothing is cut."""
        if cap is None or cap == self.cap:
            return self.nums
        return {e: n for e, n in self.nums.items() if sum(e) < cap}

    def __add__(self, other: Union["Poly", int, Fraction]) -> "Poly":
        other = self._coerce(other)
        cap = self._min_cap(self.cap, other.cap)
        mine, theirs = self._capped_nums(cap), other._capped_nums(cap)
        den = lcm(self.den, other.den)
        factor = den // self.den
        out = dict(mine) if factor == 1 else {e: n * factor for e, n in mine.items()}
        factor = den // other.den
        for exponent, n in theirs.items():
            total = out.get(exponent, 0) + n * factor
            if total:
                out[exponent] = total
            else:
                del out[exponent]
        return Poly._from_numerators(self.variables, out, den, cap)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._from_numerators(self.variables, {e: -n for e, n in self.nums.items()},
                                     self.den, self.cap)

    def __sub__(self, other: Union["Poly", int, Fraction]) -> "Poly":
        return self + (-self._coerce(other))

    def __rsub__(self, other: Union[int, Fraction]) -> "Poly":
        return self._coerce(other) - self

    def __mul__(self, other: Union["Poly", int, Fraction]) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        other = self._coerce(other)
        return _product(self, other, self._min_cap(self.cap, other.cap))

    def __rmul__(self, other: Union[int, Fraction]) -> "Poly":
        return self.scale(other)

    def scale(self, value: Union[int, Fraction]) -> "Poly":
        num, den = _ratio(value)
        if num == 0:
            return Poly._from_numerators(self.variables, {}, 1, self.cap)
        return Poly._from_numerators(self.variables,
                                     {e: n * num for e, n in self.nums.items()},
                                     self.den * den, self.cap)

    def __pow__(self, exponent: int) -> "Poly":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"polynomial power must be a non-negative integer, got {exponent}")
        if exponent == 0:
            return Poly.const(self.variables, 1, self.cap)
        result: Optional[Poly] = None
        base = self
        while exponent:
            if exponent & 1:
                result = base if result is None else result * base
            base = base * base if exponent > 1 else base
            exponent >>= 1
        return result

    # -- calculus and substitution ------------------------------------------

    def diff(self, name: str) -> "Poly":
        """Formal partial derivative.  Lowers a truncation cap by one."""
        i = self._index(name)
        # lowering exponent i is injective on the terms that contain it
        out: Dict[Exponent, int] = {
            exponent[:i] + (exponent[i] - 1,) + exponent[i + 1:]: n * exponent[i]
            for exponent, n in self.nums.items() if exponent[i]}
        cap = None if self.cap is None else max(self.cap - 1, 0)
        return Poly._from_numerators(self.variables, out, self.den, cap)

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
            origin = (0,) * len(target)
            for name, image in images.items():
                if origin in image.nums:
                    raise ValueError(
                        f"cannot substitute {name} -> series with constant term "
                        "into a truncated polynomial")
        powers: Dict[Tuple[str, int], Poly] = {}

        def power(v: str, k: int) -> Poly:
            key = (v, k)
            if key not in powers:
                powers[key] = full[v] ** k
            return powers[key]

        # every monomial's denominator divides the product of d_v^(degree in v)
        common = 1
        for i, v in enumerate(self.variables):
            if full[v].den > 1:
                common *= full[v].den ** max((e[i] for e in self.nums), default=0)
        # one accumulator, updated exactly as repeated Poly addition would be
        out: Dict[Exponent, int] = {}
        one = Poly.const(target, 1, cap)
        for exponent, n in self.nums.items():
            monomial = one
            for v, k in zip(self.variables, exponent):
                if k:
                    monomial = _product(monomial, power(v, k), cap)
            factor = n * (common // monomial.den)
            for e, c in monomial.nums.items():
                total = out.get(e, 0) + factor * c
                if total:
                    out[e] = total
                else:
                    del out[e]
        return Poly._from_numerators(target, out, self.den * common, cap)

    def translate(self, point: Sequence[Union[int, Fraction]]) -> "Poly":
        """Recentre at ``point``: substitute x_i -> x_i + p_i."""
        point = tuple(_exact(p) for p in point)
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
        point = tuple(_exact(p) for p in point)
        if len(point) != len(self.variables):
            raise ValueError("point length does not match chart")
        total = Fraction(0)
        for exponent, n in self.nums.items():
            value = n
            for p, k in zip(point, exponent):
                if k:
                    value *= p ** k
            total += value
        return total / self.den

    def coefficients_in(self, name: str) -> List["Poly"]:
        """Coefficient list [c_0, ..., c_d] of self viewed in K[others][name]."""
        i = self._index(name)
        rest = self.variables[:i] + self.variables[i + 1:]
        d = max((e[i] for e in self.nums), default=0)
        coeffs: List[Dict[Exponent, int]] = [dict() for _ in range(d + 1)]
        for exponent, n in self.nums.items():
            coeffs[exponent[i]][exponent[:i] + exponent[i + 1:]] = n
        return [Poly._from_numerators(rest, c, self.den, self.cap) for c in coeffs]

    def drop_variables(self, names: Sequence[str]) -> "Poly":
        """Forget variables that do not occur in any term."""
        drop = set(names)
        indices = [i for i, v in enumerate(self.variables) if v not in drop]
        for exponent in self.nums:
            for i, v in enumerate(self.variables):
                if v in drop and exponent[i] != 0:
                    raise ValueError(f"variable {v!r} still occurs; cannot drop it")
        new_vars = tuple(self.variables[i] for i in indices)
        new_nums = {tuple(e[i] for i in indices): n for e, n in self.nums.items()}
        return Poly._from_numerators(new_vars, new_nums, self.den, self.cap)

    def extend_variables(self, variables: Sequence[str]) -> "Poly":
        """Re-express on a larger chart containing every current variable;
        the chart is checked."""
        variables = Poly._chart(variables)
        positions = [variables.index(v) for v in self.variables]
        n = len(variables)
        out: Dict[Exponent, int] = {}
        for exponent, num in self.nums.items():
            new = [0] * n
            for pos, e in zip(positions, exponent):
                new[pos] = e
            out[tuple(new)] = num
        return Poly._from_numerators(variables, out, self.den, self.cap)

    def with_cap(self, cap: Optional[int]) -> "Poly":
        lowered = cap is not None and (self.cap is None or cap < self.cap)
        nums = self._capped_nums(cap) if lowered else dict(self.nums)
        return Poly._from_numerators(self.variables, nums, self.den, cap)

    # -- printing ------------------------------------------------------------

    def _sorted_terms(self) -> List[Tuple[Exponent, Fraction]]:
        return sorted(self.terms.items(), key=lambda t: _grlex_key(t[0]), reverse=True)

    def __repr__(self) -> str:
        return f"Poly({self})"

    def __str__(self) -> str:
        if not self.nums:
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

def insert_row(pivots: Dict[object, Dict[object, int]], row: Dict[object, int]) -> None:
    """Reduce a sparse integer row against echelon pivots and keep what is left.

    Rows map ordered keys to nonzero ints.  A pivot is stored under its lead,
    its lowest key, primitive and with a positive lead coefficient.  The
    reduction is fraction-free: a row meeting a pivot becomes a*row - b*pivot,
    with a/b the pivot's lead over the row's in lowest terms.  ``row`` is
    consumed; ``len(pivots)`` is then the rank of the rows inserted so far.
    Every other key of a pivot lies above its lead, so the pivots cut below
    any key k stay independent, one per lead below k.
    """
    while row:
        lead = min(row)
        pivot = pivots.get(lead)
        if pivot is None:
            content = _int_gcd(*row.values())
            if row[lead] < 0:
                content = -content
            if content != 1:
                for key in row:
                    row[key] //= content
            pivots[lead] = row
            return
        p, r = pivot[lead], row[lead]
        g = _int_gcd(p, r)
        a, b = p // g, r // g
        if a != 1:
            for key in row:
                row[key] *= a
        for key, coeff in pivot.items():
            new = row.get(key, 0) - b * coeff
            if new:
                row[key] = new
            else:
                del row[key]


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
    divisor = dict(f.terms)
    lead_exp = max(divisor, key=_grlex_key)
    lead_coeff = divisor[lead_exp]
    quotient: Dict[Exponent, Fraction] = {}
    remainder = dict(g.terms)
    while remainder:
        exponent = max(remainder, key=_grlex_key)
        diff = tuple(a - b for a, b in zip(exponent, lead_exp))
        if any(d < 0 for d in diff):
            return None
        factor = remainder[exponent] / lead_coeff
        quotient[diff] = factor
        for fe, fc in divisor.items():
            target = tuple(a + b for a, b in zip(diff, fe))
            new = remainder.get(target, Fraction(0)) - factor * fc
            if new == 0:
                remainder.pop(target, None)
            else:
                remainder[target] = new
    return Poly(f.variables, quotient, Poly._min_cap(f.cap, g.cap))


# Dense integer polynomials in one variable, as coefficient lists with the
# constant term first and no trailing zeros; [] is zero.  They carry the
# elimination kernel: a subresultant sequence and a root search cost only
# Python int arithmetic.

IntPoly = List[int]


def _int_trim(a: IntPoly) -> IntPoly:
    while a and a[-1] == 0:
        a.pop()
    return a


def _int_mul(a: IntPoly, b: IntPoly) -> IntPoly:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _int_sub(a: IntPoly, b: IntPoly) -> IntPoly:
    if len(a) < len(b):
        a = a + [0] * (len(b) - len(a))
    return _int_trim([x - (b[i] if i < len(b) else 0) for i, x in enumerate(a)])


def _int_exact_quotient(num: IntPoly, den: IntPoly) -> IntPoly:
    """num / den over Z; ArithmeticError unless den divides num exactly."""
    if not num:
        return []
    if len(num) < len(den):
        raise ArithmeticError("inexact division of integer polynomials")
    rem = num[:]
    lead, top = den[-1], len(den) - 1
    quotient = [0] * (len(num) - top)
    for k in range(len(quotient) - 1, -1, -1):
        c, r = divmod(rem[k + top], lead)
        if r:
            raise ArithmeticError("inexact division of integer polynomials")
        if c:
            quotient[k] = c
            for t in range(top):
                rem[k + t] -= c * den[t]
    if any(rem[:top]):
        raise ArithmeticError("inexact division of integer polynomials")
    return quotient


def _int_pow(a: IntPoly, k: int) -> IntPoly:
    out: IntPoly = [1]
    for _ in range(k):
        out = _int_mul(out, a)
    return out


def _pseudo_remainder(f: List[IntPoly], g: List[IntPoly]) -> List[IntPoly]:
    """lc(g)^(deg f - deg g + 1) * f mod g, for polynomials with coefficients
    in Z[t] (index = power of the eliminated variable, no zero leading row)."""
    lead, top = g[-1], len(g) - 1
    spare = len(f) - top
    r = f[:]
    while len(r) > top:
        shift = len(r) - 1 - top
        c = r.pop()
        if lead != [1]:
            r = [_int_mul(lead, x) for x in r]
        for t in range(top):
            if g[t]:
                r[shift + t] = _int_sub(r[shift + t], _int_mul(c, g[t]))
        while r and not r[-1]:
            r.pop()
        spare -= 1
    if spare and lead != [1]:
        scale = _int_pow(lead, spare)
        r = [_int_mul(scale, x) for x in r]
    return r


def _subresultant(f: List[IntPoly], g: List[IntPoly]) -> IntPoly:
    """res(f, g) over Z[t] for f, g of degree >= 1, by the subresultant PRS.

    Each pseudo-remainder is divided exactly by lead*h^delta, where lead is
    the leading coefficient of the previous divisor and h becomes
    lead^delta / h^(delta - 1) (Collins, J. ACM 14, 1967; Brown and Traub,
    J. ACM 18, 1971): the remainders are subresultants, so the coefficients
    stay in Z[t] and do not swell.  The sign follows the Sylvester
    determinant with f-rows first: (-1)^(mn) when the inputs are swapped to
    put the larger degree first, and a flip for every step whose two degrees
    are both odd.  A zero pseudo-remainder means a common factor.
    """
    sign = 1
    if len(f) < len(g):
        if (len(f) - 1) * (len(g) - 1) % 2:
            sign = -sign
        f, g = g, f
    lead: IntPoly = [1]
    h: IntPoly = [1]
    while len(g) > 1:
        m, n = len(f) - 1, len(g) - 1
        delta = m - n
        if m % 2 and n % 2:
            sign = -sign
        r = _pseudo_remainder(f, g)
        if not r:
            return []
        divisor = _int_mul(lead, _int_pow(h, delta))
        if divisor != [1]:
            r = [_int_exact_quotient(x, divisor) for x in r]
        f, g, lead = g, r, g[-1]
        if delta == 1:
            h = lead
        elif delta > 1:
            h = _int_exact_quotient(_int_pow(lead, delta), _int_pow(h, delta - 1))
    d = len(f) - 1
    result = _int_exact_quotient(_int_pow(g[0], d), _int_pow(h, d - 1))
    return [-c for c in result] if sign < 0 else result


def _integer_rows(f: Poly, name: str) -> Tuple[List[IntPoly], int]:
    """Coefficients of f in ``name`` as integer lists in the other variable.

    Returns the coefficient lists of a*f (index = power of ``name``) and a,
    for f's common denominator a.
    """
    i = f._index(name)
    j = 1 - i if len(f.variables) == 2 else None
    rows: List[IntPoly] = [[] for _ in range(max(e[i] for e in f.nums) + 1)]
    for exponent, c in f.nums.items():
        k = 0 if j is None else exponent[j]
        row = rows[exponent[i]]
        if len(row) <= k:
            row.extend([0] * (k + 1 - len(row)))
        row[k] = c
    return rows, f.den


def resultant(f: Poly, g: Poly, name: str) -> Poly:
    """Resultant in ``name``: the Sylvester determinant, f-coefficient rows first.

    The result is a polynomial in the remaining variable; charts of at most
    two variables are accepted.  Denominators are cleared once per input,
    with res(a*f, b*g) = a^deg(g) * b^deg(f) * res(f, g), and the resultant
    of the integer inputs is read off the subresultant PRS over Z[t] on dense
    coefficient lists (Collins, "Subresultants and reduced polynomial
    remainder sequences", J. ACM 14, 1967), in O(deg f * deg g) coefficient
    operations.  Sign convention: with f-rows first,
    res_y(y^2 - x^3, 2*y) = -4*x^3 and res_y(y - x, y + x) = 2*x; tests pin
    these values.  For an input of degree zero in ``name`` the convention
    res(f, g) = g^deg(f) (respectively f^deg(g)) applies.
    """
    if f.is_zero() or g.is_zero():
        raise ValueError("resultant of the zero polynomial")
    if f.variables != g.variables:
        raise ValueError(f"variable lists differ: {f.variables} vs {g.variables}")
    if len(f.variables) > 2:
        raise ValueError(f"resultant expects a chart of at most two variables, "
                         f"got {f.variables}")
    if f.cap is not None or g.cap is not None:
        raise ValueError("resultant of a truncated series")
    i = f._index(name)
    rest = f.variables[:i] + f.variables[i + 1:]
    m, n = f.degree_in(name), g.degree_in(name)
    if m == 0 and n == 0:
        return Poly.const(rest, 1)
    if m == 0:
        return f.coefficients_in(name)[0] ** n
    if n == 0:
        return g.coefficients_in(name)[0] ** m
    fc, a = _integer_rows(f, name)
    gc, b = _integer_rows(g, name)
    value = _subresultant(fc, gc)
    denominator = a ** n * b ** m
    return Poly(rest, {(k,) * len(rest): Fraction(c, denominator)
                       for k, c in enumerate(value) if c})


def _univariate_coeffs(f: Poly) -> IntPoly:
    """Coefficient list of a univariate polynomial times its common
    denominator, constant term first."""
    if len(f.variables) != 1:
        raise ValueError(f"expected a univariate polynomial, got chart {f.variables}")
    coeffs = [0] * (f.total_degree() + 1)
    for exponent, n in f.nums.items():
        coeffs[exponent[0]] = n
    return coeffs


def _primitive(cs: IntPoly) -> IntPoly:
    """The primitive part of an integer coefficient list, with a positive
    leading coefficient; [] for zero."""
    integers = _int_trim(list(cs))
    content = 0
    for c in integers:
        content = _int_gcd(content, c)
    if integers and integers[-1] < 0:
        content = -content
    return [c // content for c in integers]


def _int_poly_gcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """Primitive gcd in Z[x], leading coefficient positive, by the primitive
    remainder sequence: each pseudo-remainder is divided by its content."""
    a, b = _primitive(a), _primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        lead, top = b[-1], len(b) - 1
        while len(a) > top:
            c, shift = a[-1], len(a) - 1 - top
            g = _int_gcd(c, lead)
            a = [x * (lead // g) for x in a]
            for t, y in enumerate(b):
                a[shift + t] -= (c // g) * y
            _int_trim(a)
        a, b = b, _primitive(a)
    return a


def _horner_mod(cs: IntPoly, r: int, modulus: int) -> int:
    acc = 0
    for c in reversed(cs):
        acc = (acc * r + c) % modulus
    return acc


def _rational_reconstruction(residue: int, modulus: int, bound_num: int,
                             bound_den: int) -> Optional[Fraction]:
    """The s/t with |s| <= bound_num, 0 < t <= bound_den and s = t*residue
    modulo ``modulus``, if there is one; it is unique when
    modulus > 2*bound_num*bound_den.  Half-extended Euclid (Wang); a wrong
    answer is possible when there is none, so callers check it."""
    r0, r1 = modulus, residue % modulus
    t0, t1 = 0, 1
    while r1 > bound_num:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if t1 == 0 or abs(t1) > bound_den:
        return None
    return Fraction(r1, t1)


def _padic_root_candidates(cs: IntPoly) -> List[Fraction]:
    """Candidates containing every rational root of a squarefree primitive
    integer polynomial with a nonzero constant term.

    p is the smallest odd prime not dividing the leading coefficient at which
    every root mod p is simple.  Each root mod p is lifted by Newton-Hensel
    iteration until p^k > 2*|a0|*|an|, then read back as the unique fraction
    s/t with |s| <= |a0|, 0 < t <= |an| (Loos, SIAM J. Comput. 12, 1983): a
    rational root s/t in lowest terms has s | a0 and t | an, so it is found.
    """
    a0, an = abs(cs[0]), abs(cs[-1])
    derivative = [k * c for k, c in enumerate(cs)][1:]
    for p in count(3, 2):
        if any(p % q == 0 for q in range(3, isqrt(p) + 1, 2)) or an % p == 0:
            continue
        roots = [r for r in range(p) if _horner_mod(cs, r, p) == 0]
        if all(_horner_mod(derivative, r, p) for r in roots):
            break
    modulus, bound = p, 2 * a0 * an
    while modulus <= bound:
        modulus *= modulus
        roots = [(r - _horner_mod(cs, r, modulus)
                  * pow(_horner_mod(derivative, r, modulus), -1, modulus)) % modulus
                 for r in roots]
    candidates = (_rational_reconstruction(r, modulus, a0, an) for r in roots)
    return sorted(c for c in candidates if c is not None)


def rational_roots(f: Poly) -> List[Fraction]:
    """All rational roots of a nonzero univariate polynomial, with multiplicity.

    Candidates come from p-adic lifting of the roots of the primitive
    squarefree part modulo a small prime, with rational reconstruction (see
    :func:`_padic_root_candidates`).  A candidate s/t is a root exactly when
    t*x - s divides the primitive integer polynomial in Z[x] (Gauss's lemma);
    each exact division deflates it and counts one multiplicity.
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
    work = _primitive(coeffs)
    # by Gauss's lemma the quotient by the primitive gcd stays in Z[x]
    squarefree = _int_exact_quotient(
        work, _int_poly_gcd(work, [k * c for k, c in enumerate(work)][1:]))
    for r in _padic_root_candidates(squarefree):
        while len(work) > 1:
            try:
                work = _int_exact_quotient(work, [-r.numerator, r.denominator])
            except ArithmeticError:
                break
            roots.append(r)
    return sorted(roots)


def univariate_gcd(f: Poly, g: Poly) -> Poly:
    """Monic gcd of two univariate polynomials, by the primitive remainder
    sequence over Z."""
    if f.variables != g.variables or len(f.variables) != 1:
        raise ValueError("univariate_gcd expects two polynomials in one shared variable")
    a = _int_poly_gcd(_univariate_coeffs(f), _univariate_coeffs(g))
    if not a:
        return Poly.zero(f.variables)
    lead = a[-1]
    return Poly(f.variables, {(i,): Fraction(c, lead) for i, c in enumerate(a) if c})


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


def _expansion_bound(a: Poly, b: Optional[Poly] = None, exponent: int = 1) -> int:
    """An upper bound on the number of terms of a*b, or of a^exponent.

    The smaller of two counts: the products of terms (multisets of
    ``exponent`` terms of a power), and the exponents in the box spanned by
    the degrees in each variable.
    """
    degrees = [max((e[i] for e in a.nums), default=0) for i in range(len(a.variables))]
    if b is None:
        products = comb(len(a.nums) + exponent - 1, exponent)
        box = prod(exponent * d + 1 for d in degrees)
    else:
        products = len(a.nums) * len(b.nums)
        box = prod(d + max((e[i] for e in b.nums), default=0) + 1
                   for i, d in enumerate(degrees))
    return min(products, box)


def _check_expansion(bound: int, offset: int) -> None:
    if bound > MAX_TERMS:
        raise ParseError(f"expansion of up to {bound} terms exceeds the limit {MAX_TERMS}",
                         offset)


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
            offset = self.advance()[2]
            c2, w2 = self.parse_factor()
            _check_expansion(_expansion_bound(coeff, c2), offset)
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
            _check_expansion(_expansion_bound(base, exponent=exponent), power_token[2])
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
