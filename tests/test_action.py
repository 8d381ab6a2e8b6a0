"""Tests for the translation action, stabilizers, and the free-locus identity."""

import itertools
import json
import math
import random

import pytest

from hopfdeform.action import (
    ActionPoint,
    DirectionCheck,
    FreeLocusReport,
    SymbolicIdentityCertificate,
    _pth_power,
    DEFAULT_SEED,
    RegularRepElement,
    binom_mod_p,
    enumerate_action_points,
    enumerate_elements,
    expansion_table,
    free_locus_hyperplane_check,
    hyperplane_probes,
    is_action,
    is_unit_element,
    probed_stabilizer,
    random_algebra_element,
    spanning_elements,
    stabilizer,
    symbolic_coefficient_ring,
    describe_test_algebra,
    translate,
    universal_leading_coefficient_identity,
    zero_point,
)
from hopfdeform import action as action_module
from hopfdeform.cli import main
from hopfdeform.algebra import MonomialQuotientAlgebra
from hopfdeform.errors import (
    ContextMismatchError,
    GuardExceeded,
    SizeGuardError,
    UnsupportedParametersError,
)
from hopfdeform.rings import PrimeField


def trunc_algebra(p, *gens):
    """F_p[g_1, ...]/(g_i^{k_i}) with every generator nilpotent."""
    names = tuple(g for g, _ in gens)
    bounds = tuple(k for _, k in gens)
    return MonomialQuotientAlgebra(PrimeField(p), names, bounds, [{} for _ in names])


# Independent oracle: translation as honest polynomial substitution.  The
# polynomial model is a dict exps -> B-element with x_i^p truncated to 0,
# multiplied out term by term; no binomial formula anywhere.


def poly_mult(p, n, u, v, B):
    out = {}
    for e1, c1 in u.items():
        for e2, c2 in v.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            if any(k >= p for k in e):
                continue
            w = c1 * c2
            if w.is_zero():
                continue
            s = out.get(e, B.zero()) + w
            if s.is_zero():
                out.pop(e, None)
            else:
                out[e] = s
    return out


def oracle_translate(f, point):
    p, n, B = f.p, f.n, f.coefficient_algebra
    acc = {}
    for a, c in f.coefficients.items():
        term = {(0,) * n: c}
        for i, ai in enumerate(a):
            shifted = {
                tuple(1 if j == i else 0 for j in range(n)): B.one(),
                (0,) * n: point.coordinates[i],
            }
            for _ in range(ai):
                term = poly_mult(p, n, term, shifted, B)
        for e, v in term.items():
            s = acc.get(e, B.zero()) + v
            if s.is_zero():
                acc.pop(e, None)
            else:
                acc[e] = s
    return RegularRepElement(p, n, B, acc)


class TestTranslate:
    def test_shift_of_x_at_p2(self):
        B = trunc_algebra(2, ("e", 2))
        beta = B.gen(0)
        f = RegularRepElement(2, 1, B, {(1,): B.one()})
        g = translate(f, ActionPoint((beta,)))
        assert g == RegularRepElement(2, 1, B, {(1,): B.one(), (0,): beta})

    def test_square_shift_at_p3(self):
        # (x + b)^2 = x^2 + 2bx + b^2, the binomial expansion mod 3
        B = trunc_algebra(3, ("e", 3))
        beta = B.gen(0)
        f = RegularRepElement(3, 1, B, {(2,): B.one()})
        g = translate(f, ActionPoint((beta,)))
        expected = RegularRepElement(
            3, 1, B, {(2,): B.one(), (1,): beta + beta, (0,): beta * beta}
        )
        assert g == expected

    def test_zero_shift_is_identity(self):
        B = trunc_algebra(3, ("e", 3))
        rng = random.Random(11)
        for _ in range(5):
            coeffs = {
                a: random_algebra_element(rng, B)
                for a in itertools.product(range(3), repeat=2)
            }
            f = RegularRepElement(3, 2, B, coeffs)
            assert translate(f, zero_point(B, 2)) == f

    @pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (3, 1)])
    def test_against_substitution_oracle(self, p, n):
        B = trunc_algebra(p, ("e", p))
        rng = random.Random(100 * p + n)
        points = enumerate_action_points(p, n, B)
        for _ in range(20):
            coeffs = {
                a: random_algebra_element(rng, B)
                for a in itertools.product(range(p), repeat=n)
            }
            f = RegularRepElement(p, n, B, coeffs)
            pt = points[rng.randrange(len(points))]
            assert translate(f, pt) == oracle_translate(f, pt)

    def test_table_path_matches_direct_path(self):
        B = trunc_algebra(3, ("e", 3))
        pt = ActionPoint((B.gen(0) + B.gen(0) * B.gen(0),))
        table = expansion_table(3, 1, pt)
        rng = random.Random(5)
        for _ in range(5):
            coeffs = {(k,): random_algebra_element(rng, B) for k in range(3)}
            f = RegularRepElement(3, 1, B, coeffs)
            assert translate(f, pt, table) == translate(f, pt)

    def test_linearity_in_f(self):
        B = trunc_algebra(2, ("e", 2), ("d", 2))
        rng = random.Random(21)
        points = enumerate_action_points(2, 2, B)
        for _ in range(10):
            fc = {a: random_algebra_element(rng, B) for a in itertools.product(range(2), repeat=2)}
            gc = {a: random_algebra_element(rng, B) for a in itertools.product(range(2), repeat=2)}
            f = RegularRepElement(2, 2, B, fc)
            g = RegularRepElement(2, 2, B, gc)
            c = random_algebra_element(rng, B)
            pt = points[rng.randrange(len(points))]
            assert translate(f + g, pt) == translate(f, pt) + translate(g, pt)
            assert translate(f.scale(c), pt) == translate(f, pt).scale(c)

    def test_parent_mismatches(self):
        B = trunc_algebra(2, ("e", 2))
        C = trunc_algebra(2, ("e", 4))
        f = RegularRepElement(2, 1, B, {(1,): B.one()})
        with pytest.raises(ContextMismatchError):
            # e^2 squares to zero in C, so the point itself is admissible
            translate(f, ActionPoint((C.gen(0) * C.gen(0),)))


class TestLucas:
    def test_binomials_match_comb(self):
        # math.comb returns 0 for j > m, matching the convention here
        for p in (2, 3, 5):
            for m in range(30):
                for j in range(30):
                    assert binom_mod_p(m, j, p) == math.comb(m, j) % p


class TestPoints:
    def test_only_zero_over_a_field(self):
        B = trunc_algebra(2)
        pts = enumerate_action_points(2, 2, B)
        assert len(pts) == 1
        assert pts[0].is_zero()

    def test_two_points_for_the_dual_numbers(self):
        B = trunc_algebra(2, ("e", 2))
        pts = enumerate_action_points(2, 1, B)
        assert [str(pt) for pt in pts] == ["(0)", "(e)"]

    def test_nine_points_for_cubic_dual_numbers(self):
        # every a*e + c*e^2 cubes to zero; nonzero constants do not
        B = trunc_algebra(3, ("e", 3))
        pts = enumerate_action_points(3, 1, B)
        assert len(pts) == 9
        expected = {
            str(B.element({(1,): B.ring.from_int(a), (2,): B.ring.from_int(c)}))
            for a in range(3)
            for c in range(3)
        }
        assert {str(pt.coordinates[0]) for pt in pts} == expected

    def test_enumeration_is_deterministic(self):
        B = trunc_algebra(3, ("e", 3))
        a = [str(pt) for pt in enumerate_action_points(3, 2, B)]
        b = [str(pt) for pt in enumerate_action_points(3, 2, B)]
        assert a == b

    def test_size_guard(self):
        B = trunc_algebra(5, ("e", 5), ("d", 5))  # |B| = 5^25
        with pytest.raises(SizeGuardError):
            enumerate_action_points(5, 1, B)
        with pytest.raises(SizeGuardError):
            enumerate_elements(B)

    def test_non_nilpotent_coordinate_rejected(self):
        B = trunc_algebra(2, ("e", 2))
        with pytest.raises(UnsupportedParametersError):
            ActionPoint((B.one(),))

    def test_point_addition_stays_in_the_kernel(self):
        B = trunc_algebra(3, ("e", 3))
        pts = enumerate_action_points(3, 1, B)
        for a in pts[:4]:
            for b in pts[:4]:
                assert (a + b) in pts


class TestStabilizer:
    def test_x_has_trivial_stabilizer(self):
        B = trunc_algebra(2, ("e", 2))
        f = RegularRepElement(2, 1, B, {(1,): B.one()})
        stab = stabilizer(f)
        assert len(stab) == 1 and stab[0].is_zero()

    def test_constants_are_fixed_by_everything(self):
        B = trunc_algebra(2, ("e", 2))
        f = RegularRepElement(2, 1, B, {(0,): B.one()})
        assert len(stabilizer(f)) == len(enumerate_action_points(2, 1, B))

    def test_nilpotent_leading_coefficient_gives_nontrivial_stabilizer(self):
        # translate(e*x, e) = e*x + e^2 = e*x: sharpness of the unit condition
        B = trunc_algebra(2, ("e", 2))
        eps = B.gen(0)
        f = RegularRepElement(2, 1, B, {(1,): eps})
        stab = stabilizer(f)
        assert [str(pt) for pt in stab] == ["(0)", "(e)"]

    def test_stabilizers_are_subgroups(self):
        B = trunc_algebra(2, ("e", 2), ("d", 2))
        rng = random.Random(73)
        for _ in range(6):
            coeffs = {
                a: random_algebra_element(rng, B)
                for a in itertools.product(range(2), repeat=2)
            }
            f = RegularRepElement(2, 2, B, coeffs)
            stab = stabilizer(f)
            assert zero_point(B, 2) in stab
            for a in stab:
                for b in stab:
                    assert (a + b) in stab


class TestActionLaws:
    # ε^p coincides with ε^2 at p = 2; the distinct cells still all run.
    MATRIX = [
        (p, n, B)
        for p, n in [(2, 1), (2, 2), (3, 1)]
        for B in (
            trunc_algebra(p),
            trunc_algebra(p, ("e", 2)),
            trunc_algebra(p, ("e", p)),
            trunc_algebra(p, ("e", p), ("d", p)),
        )
    ]

    @pytest.mark.parametrize("p,n,B", MATRIX)
    def test_matrix_cell(self, p, n, B):
        assert is_action(p, n, B, max_pairs=150)
        # the per-point tables give the verdict of table-free translation
        assert is_action(p, n, B, translate_fn=lambda f, pt, table=None: translate(f, pt),
                         max_pairs=150)

    def test_corrupted_translate_is_rejected(self):
        # drop the cross term of (x + b)^2 at p = 3
        B = trunc_algebra(3, ("e", 3))

        def corrupted(f, pt, table=None):
            g = translate(f, pt, table)
            c2 = f.coefficient((2,))
            cross = c2 * pt.coordinates[0]
            fix = RegularRepElement(3, 1, B, {(1,): cross + cross})
            return g - fix

        assert not is_action(3, 1, B, translate_fn=corrupted)

    def test_sampled_pairs_build_tables_only_for_used_points(self, monkeypatch):
        # 81 points, 6561 pairs: 5 sampled pairs touch at most 1 + 3 * 5 points
        B = trunc_algebra(3, ("e", 3))
        built = []

        def counting_table(p, n, pt):
            built.append(pt)
            return expansion_table(p, n, pt)

        monkeypatch.setattr(action_module, "expansion_table", counting_table)
        assert is_action(3, 2, B, max_pairs=5)
        assert len(built) == len(set(built)) <= 16
        assert zero_point(B, 2) in built

    def test_spanning_set_size(self):
        B = trunc_algebra(2, ("e", 2))
        assert len(spanning_elements(2, 2, B)) == B.rank * 4


class TestFreeLocus:
    def test_exhaustive_dual_numbers_n1(self):
        B = trunc_algebra(2, ("e", 2))
        report = free_locus_hyperplane_check(2, 1, B)
        assert report.ok
        assert report.mode == "exhaustive"
        assert report.trials == 8  # 2 unit leads x 4 constant terms
        assert report.points == 2

    def test_exhaustive_field_and_dual_numbers(self):
        counts = {}
        for p, n in [(2, 1), (2, 2)]:
            for B in (trunc_algebra(2), trunc_algebra(2, ("e", 2))):
                report = free_locus_hyperplane_check(p, n, B)
                assert report.ok, report.to_dict()
                counts[(p, n, describe_test_algebra(B))] = report.trials
        assert counts[(2, 1, "F2")] == 2
        assert counts[(2, 2, "F2")] == 8
        assert counts[(2, 2, "F2[e]/(e^2)")] == 128

    @pytest.mark.parametrize("n", [1, 2])
    def test_thousand_random_trials_at_p3(self, n):
        B = trunc_algebra(3, ("e", 3))
        report = free_locus_hyperplane_check(3, n, B, trials=1000)
        assert report.ok, report.to_dict()
        assert report.mode == "random"
        assert report.seed == DEFAULT_SEED

    def test_report_shape_and_determinism(self):
        B = trunc_algebra(3, ("e", 3))
        a = free_locus_hyperplane_check(3, 1, B, trials=50, seed=99).to_dict()
        b = free_locus_hyperplane_check(3, 1, B, trials=50, seed=99).to_dict()
        assert a == b
        assert a["algebra"] == "F3[e]/(e^3)"
        assert a["seed"] == 99
        assert a["failures"] == []
        assert set(a) == {
            "p", "n", "algebra", "mode", "trials", "seed", "points", "passed", "failures"
        }

    def test_unit_detection(self):
        B = trunc_algebra(2, ("e", 2))
        assert is_unit_element(B.one() + B.gen(0))
        assert not is_unit_element(B.gen(0))
        assert not is_unit_element(B.zero())

    def test_unit_detection_off_a_local_algebra(self):
        # g^2 = g: F3[g]/(g^2 - g) is F3 x F3, and a + b*g is a unit iff
        # a != 0 and a + b != 0, whatever the constant term says
        F = PrimeField(3)
        B = MonomialQuotientAlgebra(F, ("g",), (2,), [{(1,): F.one()}])
        assert not B.generators_nilpotent
        assert trunc_algebra(3, ("e", 3), ("d", 2)).generators_nilpotent
        g = B.gen(0)
        assert is_unit_element(B.one() + g)
        assert not is_unit_element(B.one() + g + g)
        assert not is_unit_element(g)
        assert "generators_nilpotent" in vars(B)  # decided once per algebra


class TestReportConstructors:
    """The free-locus and identity records keep their positional order and
    defaults, and each report gets a failure list of its own."""

    def test_free_locus_report_defaults(self):
        r = FreeLocusReport(2, 1, "F2", "exhaustive", 2, None, 2)
        assert (r.p, r.n, r.algebra, r.mode, r.trials, r.seed, r.points) == (
            2, 1, "F2", "exhaustive", 2, None, 2)
        assert r.failures == [] and r.ok
        kw = FreeLocusReport(p=3, n=1, algebra="F3", mode="random", trials=5, seed=7,
                             points=3, failures=["x"])
        assert (kw.seed, kw.failures, kw.ok) == (7, ["x"], False)

    def test_default_failures_are_not_shared(self):
        args = (2, 1, "F2", "exhaustive", 2, None, 2)
        a, b = FreeLocusReport(*args), FreeLocusReport(*args)
        assert a.failures is not b.failures
        a.failures.append("x")
        assert b.failures == [] and FreeLocusReport(*args).failures == []

    def test_symbolic_certificate_fields(self):
        d = DirectionCheck(1, (1,), "b", "b", True, True)
        assert (d.index, d.monomial, d.extracted, d.expected, d.exact,
                d.residual_in_b_squared_zero) == (1, (1,), "b", "b", True, True)
        cert = SymbolicIdentityCertificate(2, 1, [d], 2, 1, ["step"], True)
        assert (cert.p, cert.n, cert.directions, cert.nilpotency_bound,
                cert.max_b_degree, cert.induction_steps, cert.ok) == (
            2, 1, [d], 2, 1, ["step"], True)
        kw = SymbolicIdentityCertificate(p=2, n=1, directions=[], nilpotency_bound=2,
                                         max_b_degree=0, induction_steps=[], ok=False)
        assert kw.to_dict()["passed"] is False


class TestHyperplaneProbe:
    CASES = [
        (2, 1, trunc_algebra(2, ("e", 2))),
        (2, 2, trunc_algebra(2, ("e", 2))),
        (3, 1, trunc_algebra(3, ("e", 3))),
        (2, 1, trunc_algebra(2, ("e", 2), ("d", 2))),
        (2, 2, trunc_algebra(2, ("e", 2), ("d", 2))),
    ]
    IDS = [f"{p}-{n}-{describe_test_algebra(B)}" for p, n, B in CASES]

    @staticmethod
    def residues(c):
        B = c.algebra
        return [c.coefficient(exps).residue for exps in B.iter_basis()]

    @pytest.mark.parametrize("p,n,B", CASES, ids=IDS)
    def test_matrices_multiply_like_the_algebra(self, p, n, B):
        rng = random.Random(31 * p + n)
        probes = hyperplane_probes(p, n, enumerate_action_points(p, n, B))
        assert len(probes) == len(enumerate_action_points(p, n, B)) - 1
        for pt, table, probe in probes:
            assert [tau for tau, _, _ in probe] == [
                tuple(p - 1 - (j == i) for j in range(n)) for i in range(n)]
            for tau, keys, rows in probe:
                assert list(keys) == [a for a in table if tau in table[a]]
                assert {len(row) for row in rows} == {B.rank * len(keys)}
                for k, a in enumerate(keys):
                    block = [row[k * B.rank:(k + 1) * B.rank] for row in rows]
                    c = random_algebra_element(rng, B)
                    got = [sum(m * x for m, x in zip(row, self.residues(c))) % p
                           for row in block]
                    assert got == self.residues(c * table[a][tau])

    @pytest.mark.parametrize("p,n,B", CASES, ids=IDS)
    def test_hits_match_the_stabilizer_oracle(self, p, n, B):
        # a nilpotent top coefficient leaves room for nonzero fixing points
        rng = random.Random(1000 * p + 10 * n + B.rank)
        points = enumerate_action_points(p, n, B)
        probes = hyperplane_probes(p, n, points)
        nilpotents = [pt.coordinates[0] for pt in enumerate_action_points(p, 1, B)]
        top = (p - 1,) * n
        nontrivial = 0
        for _ in range(12):
            coeffs = {a: random_algebra_element(rng, B)
                      for a in itertools.product(range(p), repeat=n)}
            coeffs[top] = nilpotents[rng.randrange(len(nilpotents))]
            f = RegularRepElement(p, n, B, coeffs)
            oracle = [pt for pt in stabilizer(f) if not pt.is_zero()]
            assert probed_stabilizer(f, probes) == oracle
            nontrivial += bool(oracle)
        assert nontrivial


class TestFrobenius:
    # _pth_power scales exponents by p and leaves the bounds to the normal
    # form; repeated squaring is the oracle.  Over F3[u,v]/(u^3 - u - v,
    # v^2 - v), u^2 goes to u^6: exponent twice the bound, through both rules.
    F3 = PrimeField(3)
    ALGEBRAS = {describe_test_algebra(B): B for _, _, B in TestActionLaws.MATRIX}
    ALGEBRAS["F3[g]/(g^2-g)"] = MonomialQuotientAlgebra(F3, ("g",), (2,), [{(1,): F3.one()}])
    ALGEBRAS["F3[u,v]/(u^3-u-v,v^2-v)"] = MonomialQuotientAlgebra(
        F3, ("u", "v"), (3, 2), [{(1, 0): F3.one(), (0, 1): F3.one()}, {(0, 1): F3.one()}])

    @pytest.mark.parametrize("B", ALGEBRAS.values(), ids=list(ALGEBRAS))
    def test_matches_repeated_squaring(self, B):
        p = B.ring.p
        for c in enumerate_elements(B):
            assert _pth_power(c) == c ** p, c


class TestSymbolicIdentity:
    @pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1)])
    def test_identity_holds_exactly(self, p, n):
        cert = universal_leading_coefficient_identity(p, n)
        assert cert.ok
        assert len(cert.directions) == n
        for d in cert.directions:
            assert d.residual_in_b_squared_zero
            assert d.exact  # the residual vanishes outright, not just mod (b)^2

    def test_p3_n1_coefficient_by_hand(self):
        # f = c0 + c1 x + c2 x^2, d = f(x+b) - f = c1 b + c2(2bx + b^2):
        # the x-coefficient of d is 2 c2 b
        cert = universal_leading_coefficient_identity(3, 1)
        S, c_syms, b_syms = symbolic_coefficient_ring(3, 1)
        hand = c_syms[(2,)] * b_syms[0] * S.ring.from_int(2)
        assert cert.directions[0].extracted == str(hand)
        assert cert.directions[0].monomial == (1,)

    def test_p2_n2_coefficient_by_hand(self):
        # extraction monomial for i = 1 is x2; its coefficient is c_{11} b_1
        cert = universal_leading_coefficient_identity(2, 2)
        S, c_syms, b_syms = symbolic_coefficient_ring(2, 2)
        hand = c_syms[(1, 1)] * b_syms[0]
        first = cert.directions[0]
        assert first.monomial == (0, 1)
        assert first.extracted == str(hand)

    def test_symbolic_zero_shift(self):
        S, c_syms, b_syms = symbolic_coefficient_ring(2, 2)
        f = RegularRepElement(2, 2, S, dict(c_syms))
        assert translate(f, zero_point(S, 2)) == f

    def test_induction_bookkeeping(self):
        cert = universal_leading_coefficient_identity(3, 2)
        assert cert.nilpotency_bound == 2 * 2 * 2 + 1
        assert cert.max_b_degree == 4
        assert cert.induction_steps[0] == {"assume": 1, "conclude": 2}
        assert cert.induction_steps[-1]["conclude"] == 5

    def test_guards(self):
        with pytest.raises(GuardExceeded):
            universal_leading_coefficient_identity(7, 1)
        with pytest.raises(GuardExceeded):
            universal_leading_coefficient_identity(2, 4)
        with pytest.raises(GuardExceeded):
            universal_leading_coefficient_identity(3, 3)  # symbol count blows the rank cap

    @staticmethod
    def drop_cross_term(monkeypatch):
        # the cross term 2*c2*b of (x + b)^2 at p = 3, n = 1, as in
        # TestActionLaws.test_corrupted_translate_is_rejected
        honest = action_module.translate

        def corrupted(f, pt, table=None):
            cross = f.coefficient((2,)) * pt.coordinates[0]
            fix = RegularRepElement(3, 1, f.coefficient_algebra, {(1,): cross + cross})
            return honest(f, pt, table) - fix

        monkeypatch.setattr(action_module, "translate", corrupted)

    def test_corrupted_translate_fails_the_certificate(self, monkeypatch):
        self.drop_cross_term(monkeypatch)
        cert = universal_leading_coefficient_identity(3, 1)
        assert not cert.ok
        assert not cert.directions[0].residual_in_b_squared_zero
        assert cert.induction_steps == []
        assert cert.to_dict()["passed"] is False

    def test_corrupted_translate_fails_the_command(self, monkeypatch, capsys):
        self.drop_cross_term(monkeypatch)
        assert main(["--format", "json", "free-locus", "--p", "3", "--n", "1",
                     "--test-algebra", "F3[e]/(e^2)"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["symbolic_identity"]["passed"] is False
        assert doc["symbolic_identity"]["induction_steps"] == []
        assert not doc["ok"]

    def test_certificate_serialization(self):
        d = universal_leading_coefficient_identity(2, 1).to_dict()
        assert d["passed"] is True
        assert d["directions"][0]["expected"] == d["directions"][0]["extracted"]
        assert d["induction_steps"] == [{"assume": 1, "conclude": 2}]


class TestElementBasics:
    def test_out_of_range_exponents(self):
        B = trunc_algebra(2, ("e", 2))
        with pytest.raises(UnsupportedParametersError):
            RegularRepElement(2, 1, B, {(2,): B.one()})

    def test_foreign_coefficients(self):
        B = trunc_algebra(2, ("e", 2))
        C = trunc_algebra(3, ("e", 3))
        with pytest.raises(ContextMismatchError):
            RegularRepElement(2, 1, B, {(1,): C.one()})

    @pytest.mark.parametrize("p,error", [(4, UnsupportedParametersError),
                                         (3, ContextMismatchError),
                                         (2.0, UnsupportedParametersError),
                                         (True, UnsupportedParametersError)])
    def test_rejected_primes(self, p, error):
        B = trunc_algebra(2, ("e", 2))
        with pytest.raises(error):
            RegularRepElement(p, 1, B, {(1,): B.one()})

    def test_matching_prime_skips_the_primality_test(self, monkeypatch):
        B = trunc_algebra(2, ("e", 2))

        def refuse(p):
            raise AssertionError("Prime(p) ran for the field's own p")

        monkeypatch.setattr(action_module, "Prime", refuse)
        f = RegularRepElement(2, 1, B, {(1,): B.one()})
        assert f.p is B.ring.p
        assert f - f == RegularRepElement(2, 1, B, {})

    def test_string_form(self):
        B = trunc_algebra(2, ("e", 2))
        eps = B.gen(0)
        f = RegularRepElement(2, 2, B, {(1, 0): B.one() + eps, (0, 0): eps})
        assert str(f) == "e + (1 + e)*x1"
        assert str(RegularRepElement(2, 1, B, {})) == "0"
