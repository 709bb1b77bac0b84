"""Exact Laurent polynomial arithmetic over the root lattice.

Coefficients throughout the engine live in the group ring Z[Q] of the root
lattice: a formal sum of monomials e^beta with beta written in simple root
coordinates.  Terms are stored sparsely as a dict from integer exponent
tuples to nonzero integer coefficients.

RationalFunction wraps a numerator/denominator pair for the places where
genuine denominators appear (divided difference operators).  Equality is by
cross multiplication, so no polynomial gcd is ever required; normalization
only rescales by monomials and integer content, which preserves the value.
"""
from __future__ import annotations

import math
import operator
from typing import Iterator

from .errors import SizeLimitError

_TERM_BUDGET = 20000


def set_term_budget(n: int) -> int:
    """Set the per-polynomial term cap, returning the previous value."""
    global _TERM_BUDGET
    if n < 1:
        raise ValueError("term budget must be positive")
    old = _TERM_BUDGET
    _TERM_BUDGET = n
    return old


def get_term_budget() -> int:
    return _TERM_BUDGET


def _check_budget(n_terms: int) -> None:
    if n_terms > _TERM_BUDGET:
        raise SizeLimitError(
            f"polynomial with {n_terms} terms exceeds budget {_TERM_BUDGET}"
        )


class LaurentPoly:
    """Sparse Laurent polynomial with integer coefficients.

    Instances are treated as immutable; all operations return new objects.
    """

    __slots__ = ("nvars", "terms", "_hash")

    def __init__(self, nvars: int, terms: dict[tuple[int, ...], int] | None = None):
        self.nvars = nvars
        clean: dict[tuple[int, ...], int] = {}
        if terms:
            for exps, coeff in terms.items():
                if coeff == 0:
                    continue
                if len(exps) != nvars:
                    raise ValueError(f"exponent tuple {exps} has wrong arity")
                clean[exps] = coeff
        _check_budget(len(clean))
        self.terms = clean
        self._hash: int | None = None

    @classmethod
    def zero(cls, nvars: int) -> "LaurentPoly":
        return cls(nvars)

    @classmethod
    def one(cls, nvars: int) -> "LaurentPoly":
        return cls(nvars, {(0,) * nvars: 1})

    @classmethod
    def constant(cls, nvars: int, c: int) -> "LaurentPoly":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def monomial(cls, exps: tuple[int, ...], coeff: int = 1) -> "LaurentPoly":
        return cls(len(exps), {tuple(exps): coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == {(0,) * self.nvars: 1}

    def term_count(self) -> int:
        return len(self.terms)

    def __iter__(self) -> Iterator[tuple[tuple[int, ...], int]]:
        return iter(self.terms.items())

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self == LaurentPoly.constant(self.nvars, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.nvars, frozenset(self.terms.items())))
        return self._hash

    def _coerce(self, other) -> "LaurentPoly | None":
        if isinstance(other, LaurentPoly):
            if other.nvars != self.nvars:
                raise ValueError("mixed variable counts")
            return other
        if isinstance(other, int):
            return LaurentPoly.constant(self.nvars, other)
        return None

    def __add__(self, other) -> "LaurentPoly":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        out = dict(self.terms)
        for exps, coeff in rhs.terms.items():
            new = out.get(exps, 0) + coeff
            if new:
                out[exps] = new
            else:
                out.pop(exps, None)
        return LaurentPoly(self.nvars, out)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "LaurentPoly":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other) -> "LaurentPoly":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs + (-self)

    def __mul__(self, other) -> "LaurentPoly":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        if len(self.terms) > len(rhs.terms):
            self, rhs = rhs, self
        out: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in rhs.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                new = out.get(key, 0) + c1 * c2
                if new:
                    out[key] = new
                else:
                    del out[key]
            _check_budget(len(out))
        return LaurentPoly(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative powers only via RationalFunction")
        result = LaurentPoly.one(self.nvars)
        base = self
        while n:
            if n & 1:
                result = result * base
            base_needed = n >> 1
            if base_needed:
                base = base * base
            n = base_needed
        return result

    def act_exponents(self, matrix: tuple[tuple[int, ...], ...]) -> "LaurentPoly":
        """Transform every exponent by the given root-coordinate matrix."""
        out: dict[tuple[int, ...], int] = {}
        for exps, coeff in self.terms.items():
            key = tuple([sum(map(operator.mul, row, exps)) for row in matrix])
            out[key] = out.get(key, 0) + coeff
        return LaurentPoly(self.nvars, out)

    def content(self) -> int:
        return math.gcd(*self.terms.values()) if self.terms else 0

    def min_exponents(self) -> tuple[int, ...]:
        if not self.terms:
            return (0,) * self.nvars
        cols = zip(*self.terms.keys())
        return tuple(min(col) for col in cols)

    def shifted(self, vec: tuple[int, ...]) -> "LaurentPoly":
        """Multiply by the monomial e^vec."""
        return LaurentPoly(
            self.nvars,
            {tuple(a + b for a, b in zip(e, vec)): c for e, c in self.terms.items()},
        )

    def scaled(self, c: int) -> "LaurentPoly":
        if c == 0:
            return LaurentPoly.zero(self.nvars)
        return LaurentPoly(self.nvars, {e: c * v for e, v in self.terms.items()})

    def divided_by_content(self, g: int) -> "LaurentPoly":
        return LaurentPoly(self.nvars, {e: v // g for e, v in self.terms.items()})

    def leading(self) -> tuple[tuple[int, ...], int]:
        """Lex-largest exponent and its coefficient."""
        exps = max(self.terms)
        return exps, self.terms[exps]

    def max_exponents(self) -> tuple[int, ...]:
        if not self.terms:
            return (0,) * self.nvars
        cols = zip(*self.terms.keys())
        return tuple(max(col) for col in cols)

    def divide_exact(self, divisor: "LaurentPoly") -> "LaurentPoly | None":
        """Return self / divisor when the division is exact, else None.

        Single-divisor long division under lex order.  When the division is
        exact every quotient exponent sits in the box bounded componentwise
        by min/max exponents of self minus those of divisor (extreme terms
        of a product never cancel under a monomial order), so stepping
        outside the box proves inexactness and guarantees termination.
        """
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return LaurentPoly.zero(self.nvars)
        if divisor.nvars != self.nvars:
            raise ValueError("mixed variable counts")
        lead_e, lead_c = divisor.leading()
        box_lo = tuple(
            a - b for a, b in zip(self.min_exponents(), divisor.min_exponents())
        )
        box_hi = tuple(
            a - b for a, b in zip(self.max_exponents(), divisor.max_exponents())
        )
        rem = dict(self.terms)
        quo: dict[tuple[int, ...], int] = {}
        steps = 0
        while rem:
            steps += 1
            if steps > _TERM_BUDGET:
                raise SizeLimitError("division step budget exhausted")
            top = max(rem)
            coeff = rem[top]
            if coeff % lead_c != 0:
                return None
            q_e = tuple(a - b for a, b in zip(top, lead_e))
            if any(q < lo or q > hi for q, lo, hi in zip(q_e, box_lo, box_hi)):
                return None
            q_c = coeff // lead_c
            quo[q_e] = q_c
            for e, c in divisor.terms.items():
                key = tuple(a + b for a, b in zip(e, q_e))
                new = rem.get(key, 0) - q_c * c
                if new:
                    rem[key] = new
                else:
                    rem.pop(key, None)
        return LaurentPoly(self.nvars, quo)

    def serialize(self) -> list[list]:
        """Stable JSON-friendly form: sorted [[exponents...], coeff] rows."""
        return [[list(e), c] for e, c in sorted(self.terms.items())]

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exps, coeff in sorted(self.terms.items(), reverse=True):
            if any(exps):
                mono = "*".join(
                    f"A{j + 1}" if p == 1 else f"A{j + 1}^{p}"
                    for j, p in enumerate(exps)
                    if p
                )
                if coeff == 1:
                    parts.append(mono)
                elif coeff == -1:
                    parts.append(f"-{mono}")
                else:
                    parts.append(f"{coeff}*{mono}")
            else:
                parts.append(str(coeff))
        out = " + ".join(parts)
        return out.replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"LaurentPoly({self})"


class RationalFunction:
    """Quotient of Laurent polynomials, compared by cross multiplication.

    Normalization rescales by a monomial, the integer content, and a sign,
    and collapses to a polynomial when the denominator divides exactly.
    None of these change the value, so distinct representatives of the same
    function still compare equal.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly | None = None):
        if den is None:
            den = LaurentPoly.one(num.nvars)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.nvars != den.nvars:
            raise ValueError("mixed variable counts")
        if num.is_zero():
            den = LaurentPoly.one(num.nvars)
        else:
            quo = None
            if not den.is_one() and den.term_count() <= 128:
                quo = num.divide_exact(den)
            if quo is not None:
                num, den = quo, LaurentPoly.one(num.nvars)
            elif den.is_one():
                pass
            else:
                shift = tuple(-m for m in den.min_exponents())
                num = num.shifted(shift)
                den = den.shifted(shift)
                g = math.gcd(num.content(), den.content())
                if g > 1:
                    num = num.divided_by_content(g)
                    den = den.divided_by_content(g)
            if den.leading()[1] < 0:
                num = -num
                den = -den
        self.num = num
        self.den = den

    @classmethod
    def from_poly(cls, p: LaurentPoly) -> "RationalFunction":
        return cls(p)

    @classmethod
    def zero(cls, nvars: int) -> "RationalFunction":
        return cls(LaurentPoly.zero(nvars))

    @classmethod
    def one(cls, nvars: int) -> "RationalFunction":
        return cls(LaurentPoly.one(nvars))

    @property
    def nvars(self) -> int:
        return self.num.nvars

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self.num == self.den

    def is_polynomial(self) -> bool:
        return self.den.is_one()

    def _coerce(self, other) -> "RationalFunction | None":
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, LaurentPoly):
            return RationalFunction(other)
        if isinstance(other, int):
            return RationalFunction(LaurentPoly.constant(self.nvars, other))
        return None

    def __eq__(self, other: object) -> bool:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self.num * rhs.den == rhs.num * self.den

    __hash__ = None  # equality is by value; no canonical hashable form

    def __add__(self, other) -> "RationalFunction":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        if self.den == rhs.den:
            return RationalFunction(self.num + rhs.num, self.den)
        # reuse a denominator when one divides the other; keeps iterated
        # sums from growing multiplicatively
        if self.den.term_count() <= 128 and rhs.den.term_count() <= 128:
            q = rhs.den.divide_exact(self.den)
            if q is not None:
                return RationalFunction(self.num * q + rhs.num, rhs.den)
            q = self.den.divide_exact(rhs.den)
            if q is not None:
                return RationalFunction(self.num + rhs.num * q, self.den)
        return RationalFunction(
            self.num * rhs.den + rhs.num * self.den, self.den * rhs.den
        )

    __radd__ = __add__

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other) -> "RationalFunction":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other) -> "RationalFunction":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs + (-self)

    def __mul__(self, other) -> "RationalFunction":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return RationalFunction(self.num * rhs.num, self.den * rhs.den)

    __rmul__ = __mul__

    def inverse(self) -> "RationalFunction":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return RationalFunction(self.den, self.num)

    def __truediv__(self, other) -> "RationalFunction":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self * rhs.inverse()

    def __rtruediv__(self, other) -> "RationalFunction":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs * self.inverse()

    def act_exponents(self, matrix: tuple[tuple[int, ...], ...]) -> "RationalFunction":
        return RationalFunction(
            self.num.act_exponents(matrix), self.den.act_exponents(matrix)
        )

    def __str__(self) -> str:
        if self.den.is_one():
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    def __repr__(self) -> str:
        return f"RationalFunction({self})"
