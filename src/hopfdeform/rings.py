"""Exact scalar arithmetic over F_p, F_p(t), and F_p[t] localized at (t).

All three rings are represented exactly: prime-field residues as ints,
the two fraction rings as reduced fractions of dense F_p[t] polynomials
with monic denominator.  Membership in the localization is the condition
that the reduced denominator not vanish at t = 0.

Every polynomial the arithmetic returns is canonical: coefficients in
range(p), nonzero top coefficient.  Results are built from canonical
operands, so they skip the full reduction that outside input gets.  The
denominators met in practice are powers of t (the generic fiber inverts
t), and for those reduction needs no Euclid: the monic gcd of c*t^k and f
is t^min(k, v), with v the t-valuation of f, and dividing by c*t^k is a
shift.
"""

from __future__ import annotations

import enum
import math

from .errors import (
    ContextMismatchError,
    DegreeOverflowError,
    NonUnitError,
    PrimeMismatchError,
    UnsupportedParametersError,
)

# Polynomial degrees past this bound abort with a guard error instead of
# silently churning; nothing in scope needs degrees anywhere near it.
MAX_T_DEGREE = 512


def is_prime(m: int) -> bool:
    return m >= 2 and all(m % d for d in range(2, math.isqrt(m) + 1))


class Prime:
    """A validated small prime.  Desk-scale computations only: p <= 7."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not isinstance(p, int) or p < 2:
            raise UnsupportedParametersError(f"p must be an integer >= 2, got {p!r}")
        if not is_prime(p):
            raise UnsupportedParametersError(f"p = {p} is not prime")
        if p > 7:
            raise UnsupportedParametersError(f"p = {p} exceeds the supported bound p <= 7")
        self.p = p


class Fiber(enum.Enum):
    SPECIAL = "special"
    GENERIC = "generic"


class FpElement:
    """Residue modulo a prime p."""

    __slots__ = ("residue", "p")

    def __init__(self, residue: int, p: int):
        self.p = p
        self.residue = residue % p

    def _check(self, other) -> "FpElement | None":
        if not isinstance(other, FpElement):
            if isinstance(other, _SCALAR_TYPES):
                raise ContextMismatchError(
                    f"cannot combine FpElement with {type(other).__name__}"
                )
            return None
        if other.p != self.p:
            raise PrimeMismatchError(f"mixed primes {self.p} and {other.p}")
        return other

    def __add__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return FpElement(self.residue + other.residue, self.p)

    def __sub__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return FpElement(self.residue - other.residue, self.p)

    def __mul__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return FpElement(self.residue * other.residue, self.p)

    def __neg__(self):
        return FpElement(-self.residue, self.p)

    def __truediv__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return self * other.invert()

    def invert(self) -> "FpElement":
        if self.residue == 0:
            raise NonUnitError(f"0 is not invertible in F_{self.p}")
        return FpElement(pow(self.residue, self.p - 2, self.p), self.p)

    def is_unit(self) -> bool:
        return self.residue != 0

    def is_zero(self) -> bool:
        return self.residue == 0

    def t_valuation(self) -> int | float:
        return float("inf") if self.residue == 0 else 0

    def __eq__(self, other):
        return (
            isinstance(other, FpElement) and other.p == self.p and other.residue == self.residue
        )

    def __hash__(self):
        return hash(("Fp", self.p, self.residue))

    def __str__(self):
        return str(self.residue)

    def __repr__(self):
        return f"FpElement({self.residue}, {self.p})"


class UnivariatePoly:
    """Dense polynomial in t over F_p; coefficients ascending, no trailing zeros."""

    __slots__ = ("coeffs", "p")

    def __init__(self, coeffs, p: int):
        cs = [c % p for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        if len(cs) - 1 > MAX_T_DEGREE:
            raise DegreeOverflowError(
                f"t-degree {len(cs) - 1} exceeds the bound {MAX_T_DEGREE}"
            )
        self.coeffs = tuple(cs)
        self.p = p

    @staticmethod
    def zero(p: int) -> "UnivariatePoly":
        return UnivariatePoly((), p)

    @staticmethod
    def one(p: int) -> "UnivariatePoly":
        # Shared per p: every denominator-1 fraction holds this instance.
        one = _ONES.get(p)
        if one is None:
            one = _ONES[p] = UnivariatePoly((1,), p)
        return one

    @staticmethod
    def t(p: int, power: int = 1) -> "UnivariatePoly":
        return UnivariatePoly((0,) * power + (1,), p)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def at_zero(self) -> int:
        return self.coeffs[0] if self.coeffs else 0

    def leading(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def t_valuation(self) -> int | float:
        for k, c in enumerate(self.coeffs):
            if c:
                return k
        return float("inf")

    def _check(self, other) -> "UnivariatePoly":
        if not isinstance(other, UnivariatePoly):
            raise ContextMismatchError(
                f"cannot combine UnivariatePoly with {type(other).__name__}"
            )
        if other.p != self.p:
            raise PrimeMismatchError(f"mixed primes {self.p} and {other.p}")
        return other

    def __add__(self, other):
        other = self._check(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        p = self.p
        out = [(x + y) % p for x, y in zip(a, b)]
        if len(a) == len(b):
            _strip(out)
        else:
            out += a[len(b):]
        return _canonical(tuple(out), p)

    def __neg__(self):
        p = self.p
        return _canonical(tuple(-c % p for c in self.coeffs), p)

    def __sub__(self, other):
        return self + (-self._check(other))

    def __mul__(self, other):
        other = self._check(other)
        a, b = self.coeffs, other.coeffs
        p = self.p
        if not (a and b):
            return _canonical((), p)
        deg = len(a) + len(b) - 2
        if deg > MAX_T_DEGREE:
            raise DegreeOverflowError(f"t-degree {deg} exceeds the bound {MAX_T_DEGREE}")
        # p is prime, so the product of the two nonzero top coefficients is
        # nonzero mod p: reducing each coefficient is all that is left to do.
        if len(a) == 1 or len(b) == 1:
            # One operand is a constant: scale the other in one pass.
            c, rest, f = (a[0], b, other) if len(a) == 1 else (b[0], a, self)
            if c == 1:
                return f
            return _canonical(tuple(c * x % p for x in rest), p)
        out = [0] * (deg + 1)
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
        return _canonical(tuple(x % p for x in out), p)

    def divmod(self, other) -> tuple["UnivariatePoly", "UnivariatePoly"]:
        other = self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        p = self.p
        a, b = self.coeffs, other.coeffs
        db = len(b) - 1
        inv_lead = pow(b[-1], p - 2, p)
        if b.count(0) == db:
            # other = c*t^db: the quotient is a shift, the remainder the low terms.
            high = a[db:]
            quo = high if inv_lead == 1 else tuple(inv_lead * c % p for c in high)
            return _canonical(quo, p), _canonical(tuple(_strip(list(a[:db]))), p)
        rem = list(a)
        quo = [0] * max(len(rem) - len(b) + 1, 0)
        while len(rem) - 1 >= db and any(rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) - 1 < db:
                break
            shift = len(rem) - 1 - db
            factor = (rem[-1] * inv_lead) % p
            quo[shift] = factor
            for k, c in enumerate(b):
                rem[shift + k] = (rem[shift + k] - factor * c) % p
        return UnivariatePoly(quo, p), UnivariatePoly(rem, p)

    def monic(self) -> "UnivariatePoly":
        if self.is_zero():
            return self
        p = self.p
        inv = pow(self.leading(), p - 2, p)
        if inv == 1:
            return self
        return _canonical(tuple(c * inv % p for c in self.coeffs), p)

    def __eq__(self, other):
        return (
            isinstance(other, UnivariatePoly)
            and other.p == self.p
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        return hash(("poly", self.p, self.coeffs))

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append("t" if c == 1 else f"{c}*t")
            else:
                parts.append(f"t^{k}" if c == 1 else f"{c}*t^{k}")
        return "+".join(parts)

    def __repr__(self):
        return f"UnivariatePoly({list(self.coeffs)}, {self.p})"


_ONES: dict[int, UnivariatePoly] = {}


def _canonical(coeffs: tuple, p: int) -> UnivariatePoly:
    """A polynomial from coefficients that are already canonical: each in
    range(p), the last nonzero.  Skips the reduction done by __init__."""
    f = object.__new__(UnivariatePoly)
    f.coeffs = coeffs
    f.p = p
    return f


def _strip(cs: list) -> list:
    """Drop trailing zeros in place."""
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def poly_gcd(a: UnivariatePoly, b: UnivariatePoly) -> UnivariatePoly:
    """Monic gcd; zero only when both arguments are zero.

    When either argument is a monomial c*t^k, its monic divisors are the
    powers of t, so the gcd is t^min(k, v) with v the t-valuation of the
    other argument (infinite for zero).  Otherwise Euclid.
    """
    a._check(b)
    for m, f in ((a, b), (b, a)):
        cs = m.coeffs
        if cs and cs.count(0) == len(cs) - 1:
            k = min(len(cs) - 1, f.t_valuation())
            return UnivariatePoly.one(a.p) if k == 0 else UnivariatePoly.t(a.p, k)
    while not b.is_zero():
        a, b = b, a.divmod(b)[1]
    return a.monic() if not a.is_zero() else a


class _PolyFraction:
    """Reduced fraction num/den of F_p[t] polynomials, monic denominator.

    Every fraction with denominator 1 holds the shared UnivariatePoly.one(p),
    so the fast paths test for it by identity.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: UnivariatePoly, den: UnivariatePoly | None = None):
        p = num.p
        if den is None or den.coeffs == (1,):
            # den = 1 dominates in practice; skip reduction entirely.
            self.num = num
            self.den = UnivariatePoly.one(p)
            return
        if den.p != p:
            raise PrimeMismatchError(f"mixed primes {p} and {den.p}")
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if not num.is_zero():
            g = poly_gcd(num, den)
            if g.degree > 0:
                num = num.divmod(g)[0]
                den = den.divmod(g)[0]
        else:
            den = UnivariatePoly.one(p)
        lead_inv = pow(den.leading(), p - 2, p)
        if lead_inv != 1:
            scale = UnivariatePoly((lead_inv,), p)
            num = num * scale
            den = den * scale
        if den.degree == 0:
            den = UnivariatePoly.one(p)
        self._validate_den(den)
        self.num = num
        self.den = den

    def _reduced(self, num: UnivariatePoly, den: UnivariatePoly):
        """A fraction of this kind from a num/den pair that is already reduced,
        with a monic denominator that this kind accepts."""
        out = object.__new__(type(self))
        out.num = num
        out.den = den
        return out

    def _validate_den(self, den: UnivariatePoly):
        raise NotImplementedError

    @property
    def p(self) -> int:
        return self.num.p

    def _check(self, other):
        if type(other) is not type(self):
            if isinstance(other, _SCALAR_TYPES):
                raise ContextMismatchError(
                    f"cannot combine {type(self).__name__} with {type(other).__name__}"
                )
            return None
        if other.num.p != self.num.p:
            raise PrimeMismatchError(f"mixed primes {self.p} and {other.p}")
        return other

    def __add__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        den = self.den
        if den is other.den and den.coeffs == (1,):
            return self._reduced(self.num + other.num, den)
        return type(self)(self.num * other.den + other.num * den, den * other.den)

    def __sub__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        den = self.den
        if den is other.den and den.coeffs == (1,):
            return self._reduced(self.num - other.num, den)
        return type(self)(self.num * other.den - other.num * den, den * other.den)

    def __mul__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        den = self.den
        if den is other.den and den.coeffs == (1,):
            return self._reduced(self.num * other.num, den)
        return type(self)(self.num * other.num, den * other.den)

    def __neg__(self):
        # Negating the numerator keeps the fraction reduced and its denominator monic.
        return self._reduced(-self.num, self.den)

    def __truediv__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        if other.num.is_zero():
            raise ZeroDivisionError("division by zero")
        # Constructed directly so that quotients landing back inside the
        # ring succeed even when the divisor itself is not a unit.
        return type(self)(self.num * other.den, self.den * other.num)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and other.p == self.p
            and other.num == self.num
            and other.den == self.den
        )

    def __hash__(self):
        return hash((type(self).__name__, self.num, self.den))

    def __str__(self):
        if self.den == UnivariatePoly.one(self.p):
            return str(self.num)
        ns, ds = str(self.num), str(self.den)
        if "+" in ns:
            ns = f"({ns})"
        if "+" in ds:
            ds = f"({ds})"
        return f"{ns}/{ds}"

    def __repr__(self):
        return f"{type(self).__name__}({self.num!r}, {self.den!r})"


class LocalRingElement(_PolyFraction):
    """Element of F_p[t] localized at (t): reduced denominator nonzero at t = 0."""

    __slots__ = ()

    def _validate_den(self, den: UnivariatePoly):
        if den.at_zero() == 0:
            raise NonUnitError(
                "denominator vanishes at t = 0; the fraction lies outside the localization"
            )

    def is_unit(self) -> bool:
        return self.num.at_zero() != 0

    def invert(self) -> "LocalRingElement":
        if not self.is_unit():
            raise NonUnitError(f"{self} is not a unit (numerator vanishes at t = 0)")
        return LocalRingElement(self.den, self.num)

    def t_valuation(self) -> int | float:
        # The denominator is a unit at t = 0, so valuation is read off the numerator.
        return self.num.t_valuation()


class RationalFunction(_PolyFraction):
    """Element of the rational function field F_p(t)."""

    __slots__ = ()

    def _validate_den(self, den: UnivariatePoly):
        pass

    def is_unit(self) -> bool:
        return not self.num.is_zero()

    def invert(self) -> "RationalFunction":
        if self.num.is_zero():
            raise NonUnitError("0 is not invertible in F_p(t)")
        return RationalFunction(self.den, self.num)

    def t_valuation(self) -> int | float:
        if self.num.is_zero():
            return float("inf")
        return self.num.t_valuation() - self.den.t_valuation()


class PrimeField:
    """Descriptor for F_p."""

    is_field = True
    element_cls = FpElement

    def __init__(self, p: int):
        self.p = Prime(p).p

    @property
    def tag(self) -> str:
        return f"F{self.p}"

    def zero(self) -> FpElement:
        return FpElement(0, self.p)

    def one(self) -> FpElement:
        return FpElement(1, self.p)

    def from_int(self, k: int) -> FpElement:
        return FpElement(k, self.p)

    def elements(self):
        return [FpElement(r, self.p) for r in range(self.p)]

    def __eq__(self, other):
        return type(other) is PrimeField and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


class FunctionField:
    """Descriptor for F_p(t)."""

    is_field = True
    element_cls = RationalFunction

    def __init__(self, p: int):
        self.p = Prime(p).p

    @property
    def tag(self) -> str:
        return f"F{self.p}(t)"

    def zero(self) -> RationalFunction:
        return RationalFunction(UnivariatePoly.zero(self.p))

    def one(self) -> RationalFunction:
        return RationalFunction(UnivariatePoly.one(self.p))

    def from_int(self, k: int) -> RationalFunction:
        return RationalFunction(UnivariatePoly((k,), self.p))

    def t(self, power: int = 1) -> RationalFunction:
        return RationalFunction(UnivariatePoly.t(self.p, power))

    def __eq__(self, other):
        return type(other) is FunctionField and other.p == self.p

    def __hash__(self):
        return hash(("FunctionField", self.p))

    def __repr__(self):
        return f"FunctionField({self.p})"


class LocalRing:
    """Descriptor for F_p[t] localized at the prime (t)."""

    is_field = False
    element_cls = LocalRingElement

    def __init__(self, p: int):
        self.p = Prime(p).p

    @property
    def tag(self) -> str:
        return f"F{self.p}[t]_(t)"

    def zero(self) -> LocalRingElement:
        return LocalRingElement(UnivariatePoly.zero(self.p))

    def one(self) -> LocalRingElement:
        return LocalRingElement(UnivariatePoly.one(self.p))

    def from_int(self, k: int) -> LocalRingElement:
        return LocalRingElement(UnivariatePoly((k,), self.p))

    def t(self, power: int = 1) -> LocalRingElement:
        return LocalRingElement(UnivariatePoly.t(self.p, power))

    def fiber_ring(self, fiber: Fiber):
        return PrimeField(self.p) if fiber is Fiber.SPECIAL else FunctionField(self.p)

    def __eq__(self, other):
        return type(other) is LocalRing and other.p == self.p

    def __hash__(self):
        return hash(("LocalRing", self.p))

    def __repr__(self):
        return f"LocalRing({self.p})"


# Scalar kinds that must never silently mix: combining any two distinct
# kinds (or equal kinds over different primes) is a hard error, while a
# fully foreign operand defers to the other object's reflected operation.
_SCALAR_TYPES = (FpElement, UnivariatePoly, _PolyFraction)


def specialize_scalar(a: LocalRingElement, fiber: Fiber):
    """Push a scalar along the fiber map: t -> 0, or the inclusion into F_p(t)."""
    if not isinstance(a, LocalRingElement):
        raise ContextMismatchError(f"specialize_scalar expects a LocalRingElement, got {type(a).__name__}")
    if fiber is Fiber.SPECIAL:
        p = a.p
        den0 = a.den.at_zero()
        return FpElement(a.num.at_zero() * pow(den0, p - 2, p), p)
    if fiber is Fiber.GENERIC:
        return RationalFunction(a.num, a.den)
    raise UnsupportedParametersError(f"unknown fiber {fiber!r}")
