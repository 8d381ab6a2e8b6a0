"""Scalar arithmetic: canonical forms, units, fiber maps, guards."""

import random

import pytest

from hopfdeform.errors import (
    ContextMismatchError,
    DegreeOverflowError,
    NonUnitError,
    PrimeMismatchError,
    UnsupportedParametersError,
)
from hopfdeform.rings import (
    Fiber,
    FpElement,
    FunctionField,
    LocalRing,
    LocalRingElement,
    MAX_T_DEGREE,
    Prime,
    PrimeField,
    RationalFunction,
    UnivariatePoly,
    is_prime,
    poly_gcd,
    specialize_scalar,
)


def poly(coeffs, p):
    return UnivariatePoly(coeffs, p)


def local(num, den, p):
    return LocalRingElement(poly(num, p), poly(den, p))


def rat(num, den, p):
    return RationalFunction(poly(num, p), poly(den, p))


def random_poly(rng, p, max_deg=4):
    return poly([rng.randrange(p) for _ in range(rng.randrange(max_deg + 1) + 1)], p)


def random_local(rng, p):
    num = random_poly(rng, p)
    while True:
        den = random_poly(rng, p)
        if den.at_zero() != 0:
            return LocalRingElement(num, den)


class TestPrime:
    def test_accepts_small_primes(self):
        for p in (2, 3, 5, 7):
            assert Prime(p).p == p

    def test_rejects_composites_and_large(self):
        for bad in (0, 1, 4, 6, 9, 11):
            with pytest.raises(UnsupportedParametersError):
                Prime(bad)

    @pytest.mark.parametrize("bad,text", [
        ("3", "p must be an integer >= 2, got '3'"),
        (1, "p must be an integer >= 2, got 1"),
        (9, "p = 9 is not prime"),
        (11, "p = 11 exceeds the supported bound p <= 7"),
    ])
    def test_error_texts(self, bad, text):
        with pytest.raises(UnsupportedParametersError) as exc:
            Prime(bad)
        assert str(exc.value) == text

    def test_keyword_construction(self):
        assert Prime(p=5).p == 5

    def test_is_prime(self):
        assert [m for m in range(-2, 30) if is_prime(m)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


class TestFpElement:
    def test_field_arithmetic(self):
        a = FpElement(4, 5)
        b = FpElement(3, 5)
        assert (a + b).residue == 2
        assert (a - b).residue == 1
        assert (a * b).residue == 2
        assert (-a).residue == 1
        assert (a / b).residue == 3  # 4 * 3^-1 = 4 * 2 = 8 = 3 mod 5

    def test_invert(self):
        for p in (2, 3, 5, 7):
            for r in range(1, p):
                a = FpElement(r, p)
                assert (a * a.invert()).residue == 1
        with pytest.raises(NonUnitError):
            FpElement(0, 3).invert()

    def test_prime_mismatch_is_hard_error(self):
        with pytest.raises(PrimeMismatchError):
            FpElement(1, 2) + FpElement(1, 3)
        with pytest.raises(ContextMismatchError):
            FpElement(1, 2) + poly([1], 2)


class TestUnivariatePoly:
    def test_canonical_trailing_zeros_stripped(self):
        assert poly([1, 2, 0, 0], 3).coeffs == (1, 2)
        assert poly([0], 3).is_zero()

    def test_product(self):
        # (1+t)(1+t) = 1 + 2t + t^2
        sq = poly([1, 1], 5) * poly([1, 1], 5)
        assert sq.coeffs == (1, 2, 1)
        # over F_2 the cross term cancels
        assert (poly([1, 1], 2) * poly([1, 1], 2)).coeffs == (1, 0, 1)

    def test_divmod_and_gcd(self):
        p = 5
        a = poly([1, 0, 1], p) * poly([2, 3], p)
        q, r = a.divmod(poly([1, 0, 1], p))
        assert r.is_zero()
        assert q == poly([2, 3], p)
        g = poly_gcd(a, poly([1, 0, 1], p))
        assert g == poly([1, 0, 1], p)

    def test_str_ascending_terms(self):
        assert str(poly([1, 1, 1], 2)) == "1+t+t^2"
        assert str(poly([0, 0, 2], 3)) == "2*t^2"
        assert str(poly([], 3)) == "0"

    def test_degree_guard(self):
        big = UnivariatePoly.t(2, MAX_T_DEGREE // 2 + 1)
        with pytest.raises(DegreeOverflowError):
            big * big


class TestLocalRingElement:
    def test_canonical_reduction(self):
        # (t + t^2)/(1 + t) = t
        a = local([0, 1, 1], [1, 1], 3)
        assert a == local([0, 1], [1], 3)
        assert str(a) == "t"

    def test_monic_denominator(self):
        # 1/(2 + 2t) is stored with monic denominator (1 + t) and scaled numerator
        a = local([1], [2, 2], 3)
        assert a.den == poly([1, 1], 3)
        assert a.num == poly([2], 3)

    def test_denominator_must_be_unit_at_zero(self):
        with pytest.raises(NonUnitError):
            local([1], [0, 1], 3)
        # ... but reduction happens first: (t)/(t) = 1 is fine
        assert local([0, 1], [0, 1], 3) == local([1], [1], 3)

    def test_unit_iff_nonzero_at_zero(self):
        assert local([1, 1], [1], 3).is_unit()
        assert not local([0, 1], [1], 3).is_unit()
        with pytest.raises(NonUnitError):
            local([0, 1], [1], 3).invert()
        u = local([1, 2], [1, 1, 1], 5)
        assert u * u.invert() == local([1], [1], 5)

    def test_division_landing_in_ring_is_allowed(self):
        # t*x style quotients: (t^2)/(t) = t stays in the ring even though t is not a unit
        assert local([0, 0, 1], [1], 3) / local([0, 1], [1], 3) == local([0, 1], [1], 3)
        with pytest.raises(NonUnitError):
            local([1], [1], 3) / local([0, 1], [1], 3)

    def test_serialization(self):
        assert str(local([1, 1], [1, 1, 1], 2)) == "(1+t)/(1+t+t^2)"
        assert str(local([0, 1], [1], 2)) == "t"

    def test_t_valuation(self):
        assert local([0, 0, 2], [1, 1], 3).t_valuation() == 2
        assert LocalRing(3).zero().t_valuation() == float("inf")


class TestRationalFunction:
    def test_inverse_of_nonunit_numerator(self):
        a = rat([0, 1], [1], 3)  # t
        assert a.invert() == rat([1], [0, 1], 3)
        with pytest.raises(NonUnitError):
            FunctionField(3).zero().invert()

    def test_no_mixing_with_local_ring(self):
        with pytest.raises(ContextMismatchError):
            rat([1], [1], 3) + local([1], [1], 3)


class TestSpecialization:
    def test_special_values(self):
        a = local([1, 1], [1, 1, 1], 2)  # (1+t)/(1+t+t^2)
        assert specialize_scalar(a, Fiber.SPECIAL) == FpElement(1, 2)
        b = local([0, 1], [1], 5)
        assert specialize_scalar(b, Fiber.SPECIAL) == FpElement(0, 5)

    def test_generic_is_inclusion(self):
        a = local([1, 2], [1, 1], 3)
        g = specialize_scalar(a, Fiber.GENERIC)
        assert isinstance(g, RationalFunction)
        assert g.num == a.num and g.den == a.den

    def test_ring_homomorphism_seeded(self):
        rng = random.Random(20260823)
        for p in (2, 3, 5):
            for _ in range(40):
                a = random_local(rng, p)
                b = random_local(rng, p)
                for fiber in (Fiber.SPECIAL, Fiber.GENERIC):
                    fa = specialize_scalar(a, fiber)
                    fb = specialize_scalar(b, fiber)
                    assert specialize_scalar(a + b, fiber) == fa + fb
                    assert specialize_scalar(a * b, fiber) == fa * fb

    def test_units_map_to_units_on_special_fiber(self):
        rng = random.Random(7)
        for _ in range(30):
            a = random_local(rng, 3)
            if a.is_unit():
                assert specialize_scalar(a, Fiber.SPECIAL).is_unit()


class TestDescriptors:
    def test_equality_and_tags(self):
        assert PrimeField(3) == PrimeField(3)
        assert PrimeField(3) != PrimeField(5)
        assert LocalRing(2).tag == "F2[t]_(t)"
        assert FunctionField(2).tag == "F2(t)"
        assert PrimeField(7).tag == "F7"

    def test_fiber_ring(self):
        R = LocalRing(3)
        assert R.fiber_ring(Fiber.SPECIAL) == PrimeField(3)
        assert R.fiber_ring(Fiber.GENERIC) == FunctionField(3)

    def test_enumeration(self):
        assert [e.residue for e in PrimeField(5).elements()] == [0, 1, 2, 3, 4]


class TestFastPaths:
    """Denominator-1 fractions and constant polynomials take short cuts; each
    must agree with the general formula it replaces."""

    @staticmethod
    def operand_pairs(kind, p):
        rng = random.Random(11 * p)
        one = poly([1], p)

        def den1():
            return kind(random_poly(rng, p))

        def den_other():
            while True:
                den = random_poly(rng, p)
                if den.degree > 0 and den.at_zero() != 0:
                    return kind(random_poly(rng, p), den)

        pairs = []
        for _ in range(15):
            pairs += [(den1(), den1()), (den1(), den_other()), (den_other(), den1())]
        a = den1()
        pairs += [(a, a), (a, kind(-a.num)), (kind(poly([], p)), den1()),
                  (kind(poly([], p)), den_other())]
        # den_other() may cancel down to 1; both cases must still be present.
        assert any(x.den == one and y.den == one for x, y in pairs)
        assert any((x.den == one) != (y.den == one) for x, y in pairs)
        return pairs

    @pytest.mark.parametrize("kind", [LocalRingElement, RationalFunction])
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_arithmetic_matches_the_general_formula(self, kind, p):
        for a, b in self.operand_pairs(kind, p):
            assert a + b == type(a)(a.num * b.den + b.num * a.den, a.den * b.den)
            assert a - b == type(a)(a.num * b.den - b.num * a.den, a.den * b.den)
            assert a * b == type(a)(a.num * b.num, a.den * b.den)

    @pytest.mark.parametrize("kind", [LocalRingElement, RationalFunction])
    def test_zero_results_are_canonical(self, kind):
        a = kind(poly([2, 1, 1], 3))
        zero = kind(poly([], 3))
        for result in (a - a, a + kind(-a.num), zero * a, a * zero):
            assert result.is_zero()
            assert result == zero
            assert result.den == poly([1], 3)

    def test_unit_polynomial_is_shared(self):
        for p in (2, 3, 5, 7):
            assert UnivariatePoly.one(p) is UnivariatePoly.one(p)
            assert UnivariatePoly.one(p) == poly([1], p)
        a, b = local([1, 2], [1], 5), local([3], [1], 5)
        for result in (a + b, a - b, a * b):
            assert result.den is UnivariatePoly.one(5)

    @staticmethod
    def schoolbook(f, g):
        out = [0] * (len(f.coeffs) + len(g.coeffs))
        for i, a in enumerate(f.coeffs):
            for j, b in enumerate(g.coeffs):
                out[i + j] += a * b
        return UnivariatePoly(out, f.p)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_constant_times_polynomial_matches_schoolbook(self, p):
        rng = random.Random(p)
        for _ in range(30):
            c = poly([rng.randrange(1, p)], p)
            f = random_poly(rng, p, max_deg=8)
            assert c * f == self.schoolbook(c, f)
            assert f * c == self.schoolbook(f, c)
            assert c * c == self.schoolbook(c, c)

    def test_zero_constant_gives_zero(self):
        f = poly([1, 2, 3], 5)
        for zero in (poly([0], 5), poly([5], 5), poly([], 5)):
            assert (zero * f).is_zero()
            assert (f * zero).is_zero()

    def test_mixing_is_still_refused_on_denominator_one(self):
        a, b = local([1, 1], [1], 3), rat([1, 1], [1], 3)
        for op in ("__add__", "__sub__", "__mul__"):
            with pytest.raises(ContextMismatchError):
                getattr(a, op)(b)
            with pytest.raises(ContextMismatchError):
                getattr(b, op)(a)
            with pytest.raises(ContextMismatchError):
                getattr(a, op)(FpElement(1, 3))
            with pytest.raises(PrimeMismatchError):
                getattr(a, op)(local([1, 1], [1], 5))
            with pytest.raises(PrimeMismatchError):
                getattr(b, op)(rat([1], [1], 2))
        with pytest.raises(PrimeMismatchError):
            poly([2], 3) * poly([1, 1], 5)
        with pytest.raises(ContextMismatchError):
            poly([2], 3) * FpElement(2, 3)

    def test_degree_guard_on_the_fast_paths(self):
        half = MAX_T_DEGREE // 2 + 1
        for kind in (LocalRingElement, RationalFunction):
            big = kind(UnivariatePoly.t(3, half))
            with pytest.raises(DegreeOverflowError):
                big * big
        top = UnivariatePoly.t(3, MAX_T_DEGREE)
        assert (poly([2], 3) * top).coeffs[-1] == 2
        with pytest.raises(DegreeOverflowError):
            top * UnivariatePoly.t(3)


def trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def long_division(a, b, p):
    """Reference quotient and remainder of coefficient lists, b nonzero."""
    a, b = trim(c % p for c in a), trim(c % p for c in b)
    inv = pow(b[-1], p - 2, p)
    quo = [0] * max(len(a) - len(b) + 1, 0)
    for shift in range(len(a) - len(b), -1, -1):
        f = a[shift + len(b) - 1] * inv % p
        quo[shift] = f
        for k, c in enumerate(b):
            a[shift + k] = (a[shift + k] - f * c) % p
    return trim(quo), trim(a)


def euclid_gcd(a, b, p):
    """Reference monic gcd of coefficient lists by plain Euclid."""
    a, b = trim(c % p for c in a), trim(c % p for c in b)
    while b:
        a, b = b, long_division(a, b, p)[1]
    if not a:
        return []
    inv = pow(a[-1], p - 2, p)
    return [c * inv % p for c in a]


def combine(a, b, sign):
    """Coefficient lists a + sign*b, not reduced."""
    n = max(len(a), len(b))
    return [x + sign * y for x, y in zip(a + [0] * (n - len(a)), b + [0] * (n - len(b)))]


def schoolbook(a, b, p):
    out = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return trim(c % p for c in out)


def assert_canonical(f, p):
    assert type(f) is UnivariatePoly and f.p == p
    assert type(f.coeffs) is tuple
    assert all(type(c) is int and 0 <= c < p for c in f.coeffs)
    assert not f.coeffs or f.coeffs[-1] != 0


def oracle_polys(p):
    """Seeded polynomials of degree <= 60: zero, constants, monomials c*t^k
    with c != 1 where p allows it, t^k times a unit, and general ones."""
    rng = random.Random(100 + p)
    coeff = (lambda: rng.randrange(2, p)) if p > 2 else (lambda: 1)
    polys = [poly([], p), poly([1], p), poly([coeff()], p)]
    for _ in range(6):
        polys.append(poly([0] * rng.randrange(61) + [coeff()], p))
        polys.append(poly([rng.randrange(p) for _ in range(rng.randrange(1, 62))], p))
        k = rng.randrange(20)
        polys.append(poly([0] * k + [rng.randrange(1, p)]
                          + [rng.randrange(p) for _ in range(rng.randrange(40))], p))
    return polys


class TestAgainstOracles:
    """F_p[t] arithmetic, the t-power short cuts included, against plain
    reference algorithms on coefficient lists."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_polynomial_arithmetic(self, p):
        polys = oracle_polys(p)
        if p > 2:
            assert any(f.degree > 0 and f.coeffs.count(0) == f.degree and f.coeffs[-1] != 1
                       for f in polys)
        for a in polys:
            assert_canonical(-a, p)
            assert_canonical(a.monic(), p)
            for b in polys:
                ca, cb = list(a.coeffs), list(b.coeffs)
                for result, want in ((a + b, combine(ca, cb, 1)), (a - b, combine(ca, cb, -1)),
                                     (a * b, schoolbook(ca, cb, p))):
                    assert_canonical(result, p)
                    assert result == poly(want, p)
                g = poly_gcd(a, b)
                assert_canonical(g, p)
                assert list(g.coeffs) == euclid_gcd(ca, cb, p)
                if not b.is_zero():
                    q, r = a.divmod(b)
                    assert_canonical(q, p)
                    assert_canonical(r, p)
                    want_q, want_r = long_division(ca, cb, p)
                    assert (list(q.coeffs), list(r.coeffs)) == (want_q, want_r)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_fractions_with_t_power_denominators(self, p):
        F = FunctionField(p)
        rng = random.Random(p)
        polys = oracle_polys(p)

        def fraction():
            num = rng.choice(polys)
            den = UnivariatePoly.t(p, rng.randrange(8)) * poly([rng.randrange(1, p)], p)
            return RationalFunction(num, den)

        def check(x, num, den):
            """x is the reduced form of num/den: cross-multiplication, coprime, monic."""
            assert_canonical(x.num, p)
            assert_canonical(x.den, p)
            assert x.den.coeffs[-1] == 1
            assert euclid_gcd(list(x.num.coeffs), list(x.den.coeffs), p) == [1]
            assert schoolbook(list(x.num.coeffs), den, p) == schoolbook(num, list(x.den.coeffs), p)
            assert (x.den is UnivariatePoly.one(p)) == (x.den.coeffs == (1,))

        for _ in range(60):
            a, b = fraction(), fraction()
            an, ad, bn, bd = (list(f.coeffs) for f in (a.num, a.den, b.num, b.den))
            cross = (schoolbook(an, bd, p), schoolbook(bn, ad, p))
            check(a + b, combine(*cross, 1), schoolbook(ad, bd, p))
            check(a - b, combine(*cross, -1), schoolbook(ad, bd, p))
            check(a * b, schoolbook(an, bn, p), schoolbook(ad, bd, p))
            check(-a, [-c for c in an], ad)
            if not b.is_zero():
                check(a / b, schoolbook(an, bd, p), schoolbook(ad, bn, p))
        assert F.t(3) / F.t(3) == F.one()
        assert (F.t(3) / F.t(3)).den is UnivariatePoly.one(p)

    def test_degree_guard_through_multiplication(self):
        p = 5
        top = MAX_T_DEGREE
        for k in (1, 2, top // 2):
            with pytest.raises(DegreeOverflowError):
                UnivariatePoly.t(p, k) * UnivariatePoly.t(p, top + 1 - k)
        assert (UnivariatePoly.t(p, top) * poly([1], p)).degree == top
        assert (poly([3], p) * UnivariatePoly.t(p, top)).degree == top
        with pytest.raises(DegreeOverflowError):
            poly([0] * top + [3], p) * poly([0, 2], p)
        unit_top = poly([1] + [0] * (top - 1) + [2], p)  # 1 + 2t^top, coprime to t
        for den in ([1], [0, 0, 1]):
            x = RationalFunction(unit_top, poly(den, p))
            with pytest.raises(DegreeOverflowError):
                x * RationalFunction(poly([1, 1], p), poly([0, 0, 0, 1], p))
        with pytest.raises(DegreeOverflowError):
            LocalRingElement(unit_top) * LocalRingElement(poly([0, 1], p))

    @pytest.mark.parametrize("den", [[1], [0, 0, 1]], ids=["den-1", "den-t^2"])
    def test_mixing_is_refused(self, den):
        a = rat([2, 1], den, 5)
        same_kind_other_prime = rat([2, 1], den, 3)
        local_ring = local([2, 1], [1], 5)
        for op in ("__add__", "__sub__", "__mul__", "__truediv__"):
            with pytest.raises(PrimeMismatchError):
                getattr(a, op)(same_kind_other_prime)
            with pytest.raises(PrimeMismatchError):
                getattr(same_kind_other_prime, op)(a)
            with pytest.raises(ContextMismatchError):
                getattr(a, op)(local_ring)
            with pytest.raises(ContextMismatchError):
                getattr(local_ring, op)(a)
            with pytest.raises(ContextMismatchError):
                getattr(a, op)(FpElement(1, 5))
        with pytest.raises(PrimeMismatchError):
            RationalFunction(poly([1, 1], 5), poly(den, 3) * poly([0, 1], 3))
        monomial = poly(den, 5) * poly([0, 3], 5)
        with pytest.raises(PrimeMismatchError):
            poly_gcd(monomial, poly([1, 1], 3))
        with pytest.raises(PrimeMismatchError):
            poly_gcd(poly([1, 1], 3), monomial)
        with pytest.raises(PrimeMismatchError):
            poly([1, 2, 3], 3).divmod(monomial)
        with pytest.raises(ContextMismatchError):
            poly_gcd(monomial, FpElement(1, 5))
