"""Exact Laurent polynomial arithmetic over the root lattice.

Coefficients throughout the engine live in the group ring Z[Q] of the root
lattice: a formal sum of monomials e^beta with beta written in simple root
coordinates.  Terms are stored sparsely as a dict from integer exponent
tuples to nonzero integer coefficients.

Genuine denominators appear only in the nil-Hecke layer, and there every
one is a product of binomials 1 - e^beta over roots beta (Kostant-Kumar,
T-equivariant K-theory of generalized flag varieties).  RationalFunction
therefore keeps its denominator as a multiset of such binomials and never
multiplies it out; no polynomial gcd is ever required.  The only division
in the package is LaurentPoly.divide_exact(v), exact division by one
binomial 1 - e^v, decided by summing coefficients along lines e + Zv; it
serves RationalFunction and the Peterson divided difference alike.  Most
attempts fail, and most of those fail on the first test: 1 - e^v vanishes
at the trivial character, so a polynomial whose coefficients do not sum to
zero is no multiple of it.  RationalFunction skips the attempts that
provably fail: 156 for 28 exact divisions in the affine G2 checks, not 726.
"""
from __future__ import annotations

import operator

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


def accumulate(out: dict, key, value) -> None:
    """Add a LaurentPoly to out[key] in a sparse dict, dropping the key when the sum is zero."""
    old = out.get(key)
    new = value if old is None else old + value
    if new.terms:
        out[key] = new
    else:
        out.pop(key, None)


def _add(h: dict, g: dict, sign: int) -> None:
    """h += sign * g on sparse terms, in place."""
    for e, c in g.items():
        if new := h.get(e, 0) + sign * c:
            h[e] = new
        else:
            del h[e]


def _check_budget(n_terms: int) -> None:
    if n_terms > _TERM_BUDGET:
        raise SizeLimitError(
            f"polynomial with {n_terms} terms exceeds budget {_TERM_BUDGET}"
        )


def _pack_width(bound: int) -> int:
    return bound.bit_length() + 1  # the least k with 2^(k-1) > bound


def _pack(exps: tuple[int, ...], k: int) -> int:
    """sum_j e_j 2^(kj), an exponent vector as one int; sums stay exact while |e_j| < 2^(k-1)."""
    return sum(map(operator.lshift, exps, range(0, k * len(exps), k)))


def _unpack(p: int, k: int, nvars: int) -> tuple[int, ...]:
    """Inverse of _pack: adding 2^(k-1) to every digit makes them all nonnegative."""
    half = 1 << (k - 1)
    p += _pack((half,) * nvars, k)
    return tuple([((p >> s) & (2 * half - 1)) - half for s in range(0, k * nvars, k)])


class LaurentPoly:
    """Sparse Laurent polynomial with integer coefficients.

    Instances are treated as immutable; all operations return new objects.  They are
    equal by value and unhashable, as RationalFunction, PetersonElement and QKElement are.
    """

    __slots__ = ("nvars", "terms")

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

    @classmethod
    def _trusted(cls, nvars: int, terms: dict[tuple[int, ...], int]) -> "LaurentPoly":
        """Wrap a dict this class built: nonzero coefficients, exponents of arity nvars."""
        _check_budget(len(terms))
        poly = object.__new__(cls)
        poly.nvars = nvars
        poly.terms = terms
        return poly

    @classmethod
    def zero(cls, nvars: int) -> "LaurentPoly":
        return cls(nvars)

    @classmethod
    def one(cls, nvars: int) -> "LaurentPoly":
        return cls._trusted(nvars, {(0,) * nvars: 1})

    @classmethod
    def constant(cls, nvars: int, c: int) -> "LaurentPoly":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def monomial(cls, exps: tuple[int, ...], coeff: int = 1) -> "LaurentPoly":
        return cls(len(exps), {tuple(exps): coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LaurentPoly):
            return self.nvars == other.nvars and self.terms == other.terms
        if isinstance(other, int):
            return self == LaurentPoly.constant(self.nvars, other)
        return NotImplemented

    __hash__ = None

    def _coerce(self, other) -> "LaurentPoly | None":
        if isinstance(other, LaurentPoly):
            if other.nvars != self.nvars:
                raise ValueError("mixed variable counts")
            return other
        if isinstance(other, int):
            return LaurentPoly.constant(self.nvars, other)
        return None

    def _plus(self, other, sign: int) -> "LaurentPoly":
        """self + sign * other in one pass over other's terms."""
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        out = dict(self.terms)
        _add(out, rhs.terms, sign)
        return LaurentPoly._trusted(self.nvars, out)

    def __add__(self, other) -> "LaurentPoly":
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other) -> "LaurentPoly":
        return self._plus(other, -1)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._trusted(self.nvars, {e: -c for e, c in self.terms.items()})

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
        return LaurentPoly._trusted(self.nvars, out)

    __rmul__ = __mul__

    def act_exponents(self, matrix: tuple[tuple[int, ...], ...]) -> "LaurentPoly":
        """Transform every exponent by a root-coordinate matrix; colliding terms add."""
        if len(matrix) != self.nvars:
            raise ValueError("mixed variable counts")
        out: dict[tuple[int, ...], int] = {}
        for exps, coeff in self.terms.items():
            key = tuple([sum(map(operator.mul, row, exps)) for row in matrix])
            out[key] = out.get(key, 0) + coeff
        if len(out) < len(self.terms):
            out = {e: c for e, c in out.items() if c}
        return LaurentPoly._trusted(self.nvars, out)

    def simple_reflected(self, k: int, row: tuple[int, ...]) -> "LaurentPoly":
        """s_{k+1}(e^g) = e^{g - <row, g> e_k}, row the Cartan row of node k + 1; no collisions."""
        out = {}
        for exps, coeff in self.terms.items():
            key = list(exps)
            key[k] -= sum(map(operator.mul, row, exps))
            out[tuple(key)] = coeff
        return LaurentPoly._trusted(self.nvars, out)

    def shifted(self, vec: tuple[int, ...]) -> "LaurentPoly":
        """Multiply by the monomial e^vec."""
        if len(vec) != self.nvars:
            raise ValueError("mixed variable counts")
        return LaurentPoly._trusted(
            self.nvars,
            {tuple(map(operator.add, e, vec)): c for e, c in self.terms.items()},
        )

    def divide_exact(self, v: tuple[int, ...]) -> "LaurentPoly | None":
        """Return self / (1 - e^v) when the quotient is a Laurent polynomial, else None.

        The exponents fall into lines e + Zv.  Write each as base + t*v, with t
        read off the first nonzero coordinate p of v.  On every line
        (1 - e^v) q = f says f_t = q_t - q_{t-1}, so q_t is the running sum of
        f along the line, and the division is exact exactly when every line
        sums to zero.  That is decided for all lines before any term is built,
        and first for their total, the coefficient sum: it is the value at the
        trivial character, where 1 - e^v vanishes.
        """
        if len(v) != self.nvars:
            raise ValueError("mixed variable counts")
        if not any(v):
            raise ZeroDivisionError("division by 1 - e^0")
        if sum(self.terms.values()):
            return None
        p = next(k for k, c in enumerate(v) if c)
        lines: dict[tuple[int, ...], dict[int, int]] = {}
        for e, c in self.terms.items():
            t = e[p] // v[p]
            lines.setdefault(tuple(a - t * b for a, b in zip(e, v)), {})[t] = c
        if any(sum(line.values()) for line in lines.values()):
            return None
        quo: dict[tuple[int, ...], int] = {}
        for base, line in lines.items():
            ts = sorted(line)
            run = 0
            for t, t_next in zip(ts, ts[1:]):
                run += line[t]
                if run:
                    _check_budget(len(quo) + t_next - t)
                    for s in range(t, t_next):
                        quo[tuple(a + s * b for a, b in zip(base, v))] = run
        return LaurentPoly._trusted(self.nvars, quo)

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


Factors = dict[tuple[int, ...], int]


def _binomial(v: tuple[int, ...]) -> LaurentPoly:
    """1 - e^v."""
    return LaurentPoly(len(v), {(0,) * len(v): 1, v: -1})


def _normalize_factors(num: LaurentPoly, den: Factors) -> tuple[LaurentPoly, Factors]:
    """Check each factor, rewrite one with v < 0 as 1/(1 - e^v) = -e^{-v}/(1 - e^{-v}), and merge."""
    factors: Factors = {}
    zero = (0,) * num.nvars
    for v, m in den.items():
        if len(v) != num.nvars:
            raise ValueError("mixed variable counts")
        if m < 0:
            raise ValueError(f"negative multiplicity {m} of 1 - e^{v}")
        if v == zero:
            raise ZeroDivisionError("zero denominator 1 - e^0")
        if v < zero:
            v = tuple(-c for c in v)
            num = num.shifted(tuple(m * c for c in v))
            if m % 2:
                num = -num
        factors[v] = factors.get(v, 0) + m
    return num, factors


class RationalFunction:
    """num / prod_v (1 - e^v)^{m_v}, a scalar of the K-theoretic nil-Hecke algebra.

    den maps each v to its multiplicity m_v > 0, and every v is stored with
    its first nonzero coordinate positive: a factor with v < 0 enters as
    1/(1 - e^v) = -e^{-v} / (1 - e^{-v}), which happens for alpha_0 = -theta
    at level zero.  Construction divides the numerator by each factor, in
    den's order, for as long as num.divide_exact(v) is exact, so the form is
    reduced: no 1 - e^v left in den divides num, and the value is a
    polynomial exactly when no factor is left.

    Sums and equality lift both sides to the larger multiplicity of each
    factor, multiplying the numerators by the missing binomials, and then
    add or compare numerators.  This is exact in the integral domain Z[Q].
    Operands must be RationalFunctions; callers convert other scalars.

    Results keep the checked constructor's (num, den) but skip the divisions
    that cannot succeed.  Twists and negation run none: a Weyl twist is a
    ring automorphism and a sign flip changes a factor by a unit.  A product
    with a unit numerator c e^beta tries only the factors of that side that
    the other side lacks: 1 - e^v has coprime coefficients, so by Gauss's
    lemma in the UFD Z[Q] it divides c e^beta a exactly when it divides a.
    A factor in both denominators is tried, as no rule rests on primality:
    1 - e^{2a} divides (1 - e^a)(1 + e^a) and neither of its factors.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: Factors | None = None):
        num, factors = _normalize_factors(num, den or {})
        reduced = self._reduced(num, factors, factors)
        self.num, self.den = reduced.num, reduced.den

    @classmethod
    def _reduced(cls, num: LaurentPoly, den: Factors, tries=()) -> "RationalFunction":
        """num / den, den normalized, dividing by each factor in tries while exact; no
        factor outside tries may divide num."""
        f = object.__new__(cls)
        f.den = {}
        for v, m in den.items():
            if v in tries:
                while m and (quo := num.divide_exact(v)) is not None:
                    num, m = quo, m - 1
            if m:
                f.den[v] = m
        f.num = num
        return f

    @classmethod
    def one(cls, nvars: int) -> "RationalFunction":
        return cls(LaurentPoly.one(nvars))

    @property
    def nvars(self) -> int:
        return self.num.nvars

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def _lift(self, den: Factors) -> LaurentPoly:
        """The numerator over den, which must contain self.den."""
        num = self.num
        for v, m in den.items():
            for _ in range(m - self.den.get(v, 0)):
                num = num - num.shifted(v)
        return num

    def _common(self, other: "RationalFunction") -> tuple[LaurentPoly, LaurentPoly, Factors]:
        if self.den == other.den:
            return self.num, other.num, self.den
        den = dict(self.den)
        for v, m in other.den.items():
            den[v] = max(m, den.get(v, 0))
        return self._lift(den), other._lift(den), den

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalFunction):
            return NotImplemented
        lhs, rhs, _ = self._common(other)
        return lhs == rhs

    __hash__ = None  # equality is by value

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        if not isinstance(other, RationalFunction):
            return NotImplemented
        lhs, rhs, den = self._common(other)
        return RationalFunction._reduced(lhs + rhs, den, den)

    def __sub__(self, other: "RationalFunction") -> "RationalFunction":
        if not isinstance(other, RationalFunction):
            return NotImplemented
        lhs, rhs, den = self._common(other)
        return RationalFunction._reduced(lhs - rhs, den, den)

    def __neg__(self) -> "RationalFunction":
        return RationalFunction._reduced(-self.num, self.den)

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        if not isinstance(other, RationalFunction):
            return NotImplemented
        den = dict(self.den)
        for v, m in other.den.items():
            den[v] = den.get(v, 0) + m
        tries = den.keys()
        if len(other.num.terms) == 1:  # a unit: no factor of self can divide
            tries -= self.den.keys()
        if len(self.num.terms) == 1:
            tries -= other.den.keys()
        return RationalFunction._reduced(self.num * other.num, den, tries)

    def act_exponents(self, matrix: tuple[tuple[int, ...], ...]) -> "RationalFunction":
        """Transform numerator and factors alike; factors sent negative flip back."""
        den = {
            tuple([sum(map(operator.mul, row, v)) for row in matrix]): m
            for v, m in self.den.items()
        }
        return RationalFunction._reduced(*_normalize_factors(self.num.act_exponents(matrix), den))

    def __str__(self) -> str:
        if not self.den:
            return str(self.num)
        factors = " * ".join(
            f"({_binomial(v)})" + (f"^{m}" if m > 1 else "") for v, m in sorted(self.den.items())
        )
        return f"({self.num}) / {factors}"

    def __repr__(self) -> str:
        return f"RationalFunction({self})"
