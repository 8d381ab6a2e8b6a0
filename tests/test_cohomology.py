"""Tests for the classifying-stack dimension calculus.

The independent oracle here is `weak_compositions`: a direct enumeration of
exponent tuples summing to a given degree.  It uses neither binomials nor
convolution, so it can arbitrate between the two implementations.
"""

import functools
import json
import random

import pytest

from hopfdeform import cli, cohomology
from hopfdeform.cohomology import (
    ConvolutionCheck,
    ConvolutionReport,
    JumpCertificate,
    JumpQuery,
    JumpTerm,
    PoincareSeries,
    classifying_series,
    dim_classifying,
    dimension_table,
    fiber_jump,
    jump_certificate,
    kunneth,
    kunneth_power,
    minimal_n_for_jump,
    projective_bundle_dim,
    series_alpha_p,
    series_constant_cyclic,
    stabilized_bundle_dim,
    table_binomials,
    verify_binomial_vs_kunneth,
)
from hopfdeform.errors import TruncationError, UnsupportedParametersError
from hopfdeform.rings import Fiber


@functools.cache
def weak_compositions(total, parts):
    """Count tuples of `parts` nonnegative integers summing to `total`."""
    if parts == 0:
        return 1 if total == 0 else 0
    return sum(weak_compositions(total - first, parts - 1)
               for first in range(total + 1))


def random_series(rng, max_degree, cap=9):
    return PoincareSeries(rng.randrange(cap + 1) for _ in range(max_degree + 1))


def jump_excess(n, degree):
    return (dim_classifying(n, degree, Fiber.SPECIAL)
            - dim_classifying(n, degree, Fiber.GENERIC))


def scan_minimal_n(query):
    """Oracle for the bisecting solver: scan n = 1, 2, ... until the gap is met."""
    n = 1
    while jump_excess(n, query.degree) < query.gap:
        n += 1
    return n


# (degree, gap) pairs at and just past every excess value for n <= 60
SOLVER_GRID = [(i, jump_excess(n, i) + step)
               for i in range(2, 13) for n in range(1, 61) for step in (0, 1)]


class TestSeries:
    def test_all_ones_entries(self):
        for make in (series_constant_cyclic, series_alpha_p):
            s = make(12)
            assert s[0] == 1
            assert s[7] == 1
            assert s.max_degree == 12
            assert sum(s[i] for i in range(9)) == 9

    def test_truncation_enforced(self):
        s = series_constant_cyclic(3)
        with pytest.raises(TruncationError):
            s[4]
        with pytest.raises(UnsupportedParametersError):
            s[-1]

    def test_invalid_series(self):
        with pytest.raises(UnsupportedParametersError):
            PoincareSeries(())
        with pytest.raises(UnsupportedParametersError):
            PoincareSeries((1, -1))
        with pytest.raises(UnsupportedParametersError):
            series_alpha_p(-1)

    @pytest.mark.parametrize("entry", [1.9, "3", True, False, 2.0])
    def test_non_int_entry_is_refused_not_coerced(self, entry):
        with pytest.raises(UnsupportedParametersError, match="degree 2 "):
            PoincareSeries([1, 1, entry, 1])

    def test_equality(self):
        assert PoincareSeries((1, 2)) == PoincareSeries((1, 2))
        assert PoincareSeries((1, 2)) != PoincareSeries((1, 2, 0))


class TestKunneth:
    def test_delta_is_unit(self):
        rng = random.Random(11)
        delta = PoincareSeries((1,) + (0,) * 6)
        for _ in range(10):
            s = random_series(rng, 6)
            assert kunneth(delta, s) == s
            assert kunneth(s, delta) == s

    def test_ones_squared(self):
        s = kunneth(series_alpha_p(10), series_alpha_p(10))
        for i in range(11):
            assert s[i] == i + 1

    def test_commutative(self):
        rng = random.Random(12)
        for _ in range(20):
            a = random_series(rng, 8)
            b = random_series(rng, 8)
            assert kunneth(a, b) == kunneth(b, a)

    def test_truncates_at_min(self):
        a = series_alpha_p(5)
        b = series_alpha_p(9)
        assert kunneth(a, b).max_degree == 5

    def test_power_counts_compositions(self):
        single = series_alpha_p(8)
        for factors in range(1, 6):
            power = kunneth_power(single, factors)
            for i in range(9):
                assert power[i] == weak_compositions(i, factors)

    def test_power_needs_a_factor(self):
        with pytest.raises(UnsupportedParametersError):
            kunneth_power(series_alpha_p(3), 0)


def textbook_convolution(a, b):
    """The truncated Cauchy product as the double sum over j <= i."""
    return [sum(a[j] * b[i - j] for j in range(i + 1))
            for i in range(min(len(a), len(b)))]


class TestKernelOracles:
    def test_kunneth_is_the_double_sum(self):
        rng = random.Random(41)
        for _ in range(60):
            a = random_series(rng, rng.randrange(25), cap=rng.choice((1, 9, 10**6)))
            b = random_series(rng, rng.randrange(25), cap=rng.choice((1, 9, 10**6)))
            assert list(kunneth(a, b).coefficients) == textbook_convolution(
                a.coefficients, b.coefficients)

    def test_kunneth_of_single_entries(self):
        assert kunneth(PoincareSeries([3]), PoincareSeries([5, 7])) == PoincareSeries([15])
        assert kunneth(PoincareSeries([2, 1]), PoincareSeries([4])) == PoincareSeries([8])

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_power_is_repeated_kunneth(self, seed):
        # k = 1..40 covers every power of two up to 32 and every 2^m - 1 up to 31
        rng = random.Random(seed)
        series = random_series(rng, 12, cap=3)
        expected = series
        for k in range(1, 41):
            assert kunneth_power(series, k) == expected, k
            expected = kunneth(expected, series)

    @pytest.mark.parametrize("factors", [-1, -8])
    def test_power_refuses_negative_factors(self, factors):
        with pytest.raises(UnsupportedParametersError):
            kunneth_power(series_alpha_p(3), factors)

    def test_convolution_side_evaluates_no_binomial(self, monkeypatch):
        calls = []
        original = cohomology.dim_classifying

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(cohomology, "dim_classifying", counted)
        kunneth_power(series_alpha_p(20), 23)
        kunneth(series_alpha_p(20), series_alpha_p(20))
        assert calls == []
        # the crosscheck evaluates each binomial once, for its binomial side only
        report = verify_binomial_vs_kunneth(11, 20)
        assert report.ok
        assert sorted(calls, key=repr) == sorted(
            ((11, e.degree, e.fiber) for e in report.entries), key=repr)


class TestPackedKunneth:
    """kunneth multiplies packed ints; the double sum over j <= i is the oracle."""

    @staticmethod
    def check(a, b):
        got = kunneth(PoincareSeries(a), PoincareSeries(b))
        assert list(got.coefficients) == textbook_convolution(a, b)
        assert all(type(c) is int for c in got.coefficients)

    def test_length_one(self):
        for x, y in ((0, 0), (1, 1), (3, 5), (255, 255), (256, 1), (10**80, 10**80 + 1)):
            self.check([x], [y])
        self.check([7], [2, 9, 4])

    def test_unequal_lengths(self):
        self.check([1, 2, 3, 4, 5, 6, 7], [8, 9])
        self.check([4, 0, 1], [1, 1, 1, 1, 1, 1])
        self.check(list(range(40)), list(range(100, 0, -1)))

    def test_all_zero_factor(self):
        self.check([0] * 9, [5, 6, 7, 8, 9, 1, 2, 3, 4])
        self.check([3, 2, 1], [0, 0, 0, 0])
        self.check([0] * 5, [0] * 5)
        # the slot width must also hold the other factor's entries
        self.check([0], [300])
        self.check([0, 0], [300, 10**20])
        self.check([10**20], [0])
        self.check([0] * 4, [2**64, 1, 2**200, 7])

    def test_entries_near_1e80(self):
        # the 32 x 200 table's special column reaches about 10^61; these go past it
        rng = random.Random(80)
        for length in (1, 2, 17, 201):
            a = [10**80 + rng.randrange(10**79) for _ in range(length)]
            b = [rng.randrange(10**80) for _ in range(length)]
            self.check(a, b)
            self.check(a, a)
        generic = classifying_series(32, Fiber.GENERIC, 200)
        square = kunneth(generic, generic)
        assert max(square.coefficients) > 10**61
        assert square == classifying_series(32, Fiber.SPECIAL, 200)

    def test_slot_boundaries(self):
        # entries 2^k - 1 put the coefficient bound next to a whole byte
        for k in range(1, 40):
            for length in (1, 2, 3, 8):
                self.check([2**k - 1] * length, [2**k - 1] * length)
                self.check([2**k - 1] * length, [2**k] * (length + 1))

    @pytest.mark.parametrize("seed", [11, 12, 13, 14])
    def test_random_nonnegative_series(self, seed):
        rng = random.Random(seed)
        for _ in range(40):
            cap = rng.choice((1, 2, 255, 256, 10**6, 2**64, 10**40))
            a = [rng.randrange(cap + 1) for _ in range(rng.randrange(1, 60))]
            b = [rng.randrange(cap + 1) for _ in range(rng.randrange(1, 60))]
            self.check(a, b)
            self.check(b, a)
            self.check(a, a)

    def test_square_of_one_series(self):
        # s1 is s2 takes the squaring path
        rng = random.Random(5)
        for length in (1, 4, 121):
            s = random_series(rng, length - 1, cap=10**12)
            assert list(kunneth(s, s).coefficients) == textbook_convolution(
                s.coefficients, s.coefficients)


class TestDimensions:
    def test_first_degree_cell(self):
        # the 2-vs-1 jump of the original rank-p^2 family, at n = 1, degree 1
        assert dim_classifying(1, 1, Fiber.SPECIAL) == 2
        assert dim_classifying(1, 1, Fiber.GENERIC) == 1

    def test_degree_zero_is_one(self):
        for n in range(1, 7):
            for fiber in (Fiber.SPECIAL, Fiber.GENERIC):
                assert dim_classifying(n, 0, fiber) == 1

    def test_against_enumeration(self):
        # special fiber at n counts like a generic fiber at 2n
        for n in range(1, 5):
            for i in range(8):
                assert dim_classifying(n, i, Fiber.GENERIC) == weak_compositions(i, n)
                assert dim_classifying(n, i, Fiber.SPECIAL) == weak_compositions(i, 2 * n)
        assert dim_classifying(3, 4, Fiber.SPECIAL) == weak_compositions(4, 6) == 126

    def test_pascal_consistency(self):
        # cross-multiplied so everything stays integral
        for fiber, width in ((Fiber.GENERIC, 1), (Fiber.SPECIAL, 2)):
            for n in range(1, 7):
                m = width * n
                for i in range(1, 21):
                    lhs = dim_classifying(n, i, fiber) * i
                    rhs = dim_classifying(n, i - 1, fiber) * (m + i - 1)
                    assert lhs == rhs

    def test_invalid_inputs(self):
        with pytest.raises(UnsupportedParametersError):
            dim_classifying(0, 1, Fiber.SPECIAL)
        with pytest.raises(UnsupportedParametersError):
            dim_classifying(1, -1, Fiber.SPECIAL)
        with pytest.raises(UnsupportedParametersError):
            dim_classifying(1, 1, "special")

    def test_series_matches_scalar(self):
        s = classifying_series(2, Fiber.SPECIAL, 6)
        assert s.coefficients == tuple(
            dim_classifying(2, i, Fiber.SPECIAL) for i in range(7))

    def test_huge_cells_widen(self):
        value = dim_classifying(40, 60, Fiber.SPECIAL)
        assert value > 2**64
        assert value * 60 == dim_classifying(40, 59, Fiber.SPECIAL) * (80 + 59)


class TestProjectiveBundle:
    def test_even_shift_sum(self):
        s = series_alpha_p(10)
        assert projective_bundle_dim(s, 50, 4) == 3
        assert projective_bundle_dim(s, 0, 4) == s[4]
        assert projective_bundle_dim(s, 50, 1) == s[1]

    def test_monotone_and_stabilizes(self):
        rng = random.Random(13)
        for _ in range(10):
            s = random_series(rng, 9)
            for i in range(10):
                values = [projective_bundle_dim(s, bundle, i) for bundle in range(8)]
                assert values == sorted(values)
                floor = stabilized_bundle_dim(i)
                assert len({v for v in values[floor:]}) == 1

    def test_truncation(self):
        s = series_alpha_p(3)
        with pytest.raises(TruncationError):
            projective_bundle_dim(s, 2, 4)
        with pytest.raises(UnsupportedParametersError):
            projective_bundle_dim(s, -1, 2)


class TestJumpSolver:
    def test_query_validation(self):
        with pytest.raises(UnsupportedParametersError):
            JumpQuery(0, 1)
        with pytest.raises(UnsupportedParametersError):
            JumpQuery(1, 0)
        with pytest.raises(UnsupportedParametersError):
            JumpQuery(1, 1, -1)

    def test_known_solutions(self):
        assert minimal_n_for_jump(JumpQuery(1, 1)) == 1
        assert minimal_n_for_jump(JumpQuery(5, 1)) == 5
        assert minimal_n_for_jump(JumpQuery(1, 2)) == 1

    def test_degree_one_closed_form(self):
        # excess at degree 1 is exactly n
        for e in range(1, 51):
            assert minimal_n_for_jump(JumpQuery(e, 1)) == e

    def test_minimality_on_grid(self):
        for e in range(1, 51):
            for i in range(1, 11):
                n = minimal_n_for_jump(JumpQuery(e, i))
                assert jump_excess(n, i) >= e
                if n > 1:
                    assert jump_excess(n - 1, i) < e

    def test_bisection_matches_upward_scan_on_grid(self):
        for degree, gap in SOLVER_GRID:
            query = JumpQuery(gap, degree)
            assert minimal_n_for_jump(query) == scan_minimal_n(query), (degree, gap)

    @pytest.mark.parametrize("degree,gap", [
        (1, 10**6), (500, 1), (500, 10**6), (1000, 1), (1000, 10**6)])
    def test_bisection_matches_upward_scan_at_the_guards(self, degree, gap):
        query = JumpQuery(gap, degree)
        n = minimal_n_for_jump(query)
        assert n == scan_minimal_n(query)
        if degree == 1:
            assert n == gap

    def test_nondecreasing_in_gap(self):
        for i in range(1, 11):
            previous = 1
            for e in range(1, 51):
                n = minimal_n_for_jump(JumpQuery(e, i))
                assert n >= previous
                previous = n

    @pytest.mark.parametrize("grid", ["solver-grid", "gap-1e6"])
    def test_search_stays_below_twice_the_answer(self, monkeypatch, grid):
        # the excess is evaluated only at n up to 2 * answer - 1: hi doubles
        # from 1, and the bisection stays inside (hi/2, hi]
        queries = (SOLVER_GRID if grid == "solver-grid"
                   else [(degree, 10**6) for degree in (2, 612, 1000)])
        honest = cohomology.dim_classifying
        reached = []

        def recording(n, degree, fiber):
            reached.append(n)
            return honest(n, degree, fiber)

        monkeypatch.setattr(cohomology, "dim_classifying", recording)
        for degree, gap in queries:
            reached.clear()
            n = minimal_n_for_jump(JumpQuery(gap, degree))
            assert jump_excess(n, degree) >= gap > (jump_excess(n - 1, degree) if n > 1 else 0)
            assert reached and max(reached) < 2 * n, (degree, gap, n, max(reached))


class TestRecordConstructors:
    """The query and certificate records keep their positional order, defaults
    and validation texts."""

    def test_jump_query_defaults(self):
        q = JumpQuery(5, 2)
        assert (q.gap, q.degree, q.bundle_dim) == (5, 2, None)
        q = JumpQuery(gap=5, degree=2, bundle_dim=0)
        assert (q.gap, q.degree, q.bundle_dim) == (5, 2, 0)

    @pytest.mark.parametrize("args,text", [
        ((0, 1), "requested gap must be >= 1"),
        ((1, 0), "jump degree must be >= 1"),
        ((1, 1, -1), "bundle dimension must be >= 0"),
    ])
    def test_jump_query_error_texts(self, args, text):
        with pytest.raises(UnsupportedParametersError) as exc:
            JumpQuery(*args)
        assert str(exc.value) == text

    def test_jump_certificate_fields(self):
        terms = (JumpTerm(3, 10, 4), JumpTerm(degree=1, special=4, generic=2))
        assert (terms[1].degree, terms[1].special, terms[1].generic) == (1, 4, 2)
        cert = JumpCertificate(2, 3, 1, terms)
        assert (cert.n, cert.degree, cert.bundle_dim, cert.terms) == (2, 3, 1, terms)
        assert (cert.special_total, cert.generic_total, cert.jump, cert.ok) == (14, 6, 8, True)
        assert JumpCertificate(n=2, degree=3, bundle_dim=1, terms=terms).jump == 8

    def test_convolution_report_fields(self):
        good = ConvolutionCheck(Fiber.GENERIC, 2, 3, 3)
        bad = ConvolutionCheck(fiber=Fiber.SPECIAL, degree=2, convolution=4, binomial=5)
        assert (bad.fiber, bad.degree, bad.convolution, bad.binomial) == (
            Fiber.SPECIAL, 2, 4, 5)
        report = ConvolutionReport(1, 2, (good, bad))
        assert (report.n, report.max_degree, report.entries) == (1, 2, (good, bad))
        assert not report.ok and report.mismatches() == [bad]
        assert ConvolutionReport(n=1, max_degree=2, entries=(good,)).ok


class TestFiberJump:
    def test_degree_one(self):
        for bundle in (0, 1, 5):
            assert fiber_jump(1, 1, bundle) == 1

    def test_degree_zero_vanishes(self):
        for n in range(1, 5):
            assert fiber_jump(n, 0, 3) == 0

    def test_two_by_two(self):
        # special sum 10 + 1, generic sum 3 + 1
        assert fiber_jump(2, 2, 1) == 7
        assert fiber_jump(2, 2, 0) == 10 - 3

    def test_default_is_stabilized(self):
        for n in (1, 2, 3):
            for i in range(7):
                assert fiber_jump(n, i) == fiber_jump(n, i, stabilized_bundle_dim(i))
                assert fiber_jump(n, i) == fiber_jump(n, i, 50)

    def test_matches_the_bundle_sums_of_both_series(self):
        for n in (1, 2, 5):
            for i in range(9):
                special = classifying_series(n, Fiber.SPECIAL, i)
                generic = classifying_series(n, Fiber.GENERIC, i)
                for bundle in (0, 1, 2, 3, 10):
                    assert fiber_jump(n, i, bundle) == (
                        projective_bundle_dim(special, bundle, i)
                        - projective_bundle_dim(generic, bundle, i))

    def test_certificate_contents(self):
        cert = jump_certificate(2, 2, 1)
        assert [(t.degree, t.special, t.generic) for t in cert.terms] == [
            (2, 10, 3), (0, 1, 1)]
        assert cert.special_total == 11
        assert cert.generic_total == 4
        assert cert.jump == 7
        assert cert.ok
        payload = cert.to_dict()
        assert payload["termwise_dominated"] is True
        assert payload["jump"] == 7
        assert payload["terms"][0] == {
            "degree": 2, "special": 10, "generic": 3, "dominated": True}

    def test_certificate_matches_jump(self):
        for n in (1, 2, 4):
            for i in range(8):
                cert = jump_certificate(n, i)
                assert cert.jump == fiber_jump(n, i)
                assert cert.ok

    def test_solver_feeds_jump(self):
        # the solved n reaches the requested gap after the bundle sum too
        for e in (1, 3, 10, 25):
            for i in (1, 2, 5, 10):
                n = minimal_n_for_jump(JumpQuery(e, i))
                cert = jump_certificate(n, i)
                assert cert.ok
                assert cert.jump >= e


class TestConvolutionCrosscheck:
    def test_generic_matches(self):
        report = verify_binomial_vs_kunneth(3, 10)
        assert report.ok
        generic = [e for e in report.entries if e.fiber is Fiber.GENERIC]
        assert len(generic) == 11
        for entry in generic:
            assert entry.convolution == weak_compositions(entry.degree, 3)

    def test_single_factor(self):
        report = verify_binomial_vs_kunneth(1, 15)
        assert report.ok
        assert all(entry.binomial == 1
                   for entry in report.entries if entry.fiber is Fiber.GENERIC)

    def test_special_matches(self):
        report = verify_binomial_vs_kunneth(4, 15)
        assert report.ok
        special = [e for e in report.entries if e.fiber is Fiber.SPECIAL]
        for entry in special[:9]:
            assert entry.convolution == weak_compositions(entry.degree, 8)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_special_column_is_the_2n_fold_power(self, n):
        # the special column is built as the Kunneth square of the generic one;
        # the 2n-fold power of a single factor is the direct construction
        special = [e.convolution for e in verify_binomial_vs_kunneth(n, 30).entries
                   if e.fiber is Fiber.SPECIAL]
        assert special == list(kunneth_power(series_alpha_p(30), 2 * n).coefficients)

    @pytest.mark.parametrize("max_degree", [0, 1, 7, 120])
    def test_running_sums_are_the_kunneth_powers(self, max_degree):
        single = series_alpha_p(max_degree)
        for n in range(1, 41):
            entries = verify_binomial_vs_kunneth(n, max_degree).entries
            for fiber, factors in ((Fiber.GENERIC, n), (Fiber.SPECIAL, 2 * n)):
                column = [e.convolution for e in entries if e.fiber is fiber]
                assert column == list(kunneth_power(single, factors).coefficients), \
                    (n, fiber)

    def test_one_kunneth_product_and_no_power_per_crosscheck(self, monkeypatch):
        calls = {"kunneth": 0, "kunneth_power": 0}
        for name in calls:
            original = getattr(cohomology, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(cohomology, name, counted)
        assert verify_binomial_vs_kunneth(20, 120).ok
        assert calls == {"kunneth": 1, "kunneth_power": 0}

    @staticmethod
    def closed_form_columns(n, max_degree):
        return {fiber: list(classifying_series(n, fiber, max_degree).coefficients)
                for fiber in (Fiber.GENERIC, Fiber.SPECIAL)}

    def test_given_binomials_are_the_ones_certified(self, monkeypatch):
        columns = self.closed_form_columns(6, 15)
        calls = []
        monkeypatch.setattr(cohomology, "dim_classifying",
                            lambda *args: calls.append(args))
        given = verify_binomial_vs_kunneth(6, 15, columns)
        assert calls == []
        monkeypatch.undo()
        assert given.to_dict() == verify_binomial_vs_kunneth(6, 15).to_dict()

    def test_a_wrong_given_binomial_is_a_mismatch(self):
        columns = self.closed_form_columns(3, 9)
        columns[Fiber.SPECIAL][7] += 1
        report = verify_binomial_vs_kunneth(3, 9, columns)
        assert not report.ok
        [bad] = report.mismatches()
        assert (bad.fiber, bad.degree) == (Fiber.SPECIAL, 7)
        assert bad.convolution == dim_classifying(3, 7, Fiber.SPECIAL)
        assert bad.binomial == bad.convolution + 1

    @pytest.mark.parametrize("fiber,length", [
        (Fiber.GENERIC, 9), (Fiber.SPECIAL, 11), (Fiber.GENERIC, 0)])
    def test_given_columns_must_cover_every_degree(self, fiber, length):
        columns = self.closed_form_columns(2, 9)
        columns[fiber] = (columns[fiber] * 2)[:length]
        with pytest.raises(UnsupportedParametersError, match="10 entries"):
            verify_binomial_vs_kunneth(2, 9, columns)

    def test_serialization(self):
        payload = verify_binomial_vs_kunneth(2, 4).to_dict()
        assert payload["ok"] is True
        assert payload["n"] == 2
        assert len(payload["entries"]) == 10
        assert payload["entries"][0] == {
            "fiber": "generic", "degree": 0,
            "convolution": 1, "binomial": 1, "match": True}


class TestCrosscheckNegativeControl:
    """A wrong single-factor series must surface as cross-check mismatches."""

    @pytest.mark.parametrize("bumped_degree", [0, 4, 8])
    def test_bumped_factor_is_reported(self, capsys, monkeypatch, bumped_degree):
        max_n, max_degree = 3, 8
        ones = series_alpha_p(max_degree)
        bumped = list(ones.coefficients)
        bumped[bumped_degree] += 1
        bumped = PoincareSeries(bumped)
        # The running sums convolve the first factor with n - 1 true all-ones
        # factors, and the special column is the square of the generic one.
        expected = []
        for n in range(1, max_n + 1):
            generic = bumped if n == 1 else kunneth(bumped, kunneth_power(ones, n - 1))
            special = kunneth_power(generic, 2)
            for fiber, column in ((Fiber.GENERIC, generic), (Fiber.SPECIAL, special)):
                for i, dim in enumerate(column.coefficients):
                    binomial = dim_classifying(n, i, fiber)
                    if dim != binomial:
                        expected.append({"n": n, "i": i, "fiber": fiber.value,
                                         "convolution": dim, "binomial": binomial})

        original = cohomology._all_ones

        def corrupted(degree):
            coeffs = list(original(degree).coefficients)
            coeffs[bumped_degree] += 1
            return PoincareSeries(coeffs)

        monkeypatch.setattr(cohomology, "_all_ones", corrupted)
        code = cli.main(["--format", "json", "cohomology-table",
                         "--max-n", str(max_n), "--max-degree", str(max_degree)])
        crosscheck = json.loads(capsys.readouterr().out)["crosscheck"]
        assert code == 1
        assert crosscheck["ok"] is False
        assert crosscheck["mismatches"] == expected
        assert expected[0] == {"n": 1, "i": bumped_degree, "fiber": "generic",
                               "convolution": 2, "binomial": 1}


class TestDimensionTable:
    def test_row_layout(self):
        rows = dimension_table(2, 3)
        assert len(rows) == 2 * 4 * 3
        assert rows[0] == {"n": 1, "i": 0, "fiber": "generic", "dim": 1}
        assert rows[1] == {"n": 1, "i": 0, "fiber": "special", "dim": 1}
        assert rows[2] == {"n": 1, "i": 0, "fiber": "gap", "dim": 0}

    def test_first_degree_gap_row(self):
        rows = dimension_table(3, 2)
        cell = {r["fiber"]: r["dim"] for r in rows if r["n"] == 1 and r["i"] == 1}
        assert cell == {"generic": 1, "special": 2, "gap": 1}

    @pytest.mark.parametrize("max_n,max_degree", [(1, 0), (3, 0), (2, 5), (7, 12)])
    def test_table_binomials_are_each_n_columns(self, max_n, max_degree):
        columns = list(table_binomials(dimension_table(max_n, max_degree), max_degree))
        assert columns == [
            {fiber: list(classifying_series(n, fiber, max_degree).coefficients)
             for fiber in (Fiber.GENERIC, Fiber.SPECIAL)}
            for n in range(1, max_n + 1)]

    def test_gap_rows_consistent(self):
        rows = dimension_table(4, 6)
        by_cell = {}
        for r in rows:
            by_cell.setdefault((r["n"], r["i"]), {})[r["fiber"]] = r["dim"]
        for values in by_cell.values():
            assert values["gap"] == values["special"] - values["generic"]
