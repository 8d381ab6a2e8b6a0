"""Tests for Hopf structures: the deformation, its fibers, duality, quotients."""

import gc
import hashlib
import itertools
import json
import random

import pytest

from hopfdeform.errors import (
    ContextMismatchError,
    NotAFieldError,
    NotAHopfIdealError,
    NotCocommutativeError,
    NotCommutativeError,
    NotFreeQuotientError,
    ParentMismatchError,
    RelationViolationError,
    UnsupportedParametersError,
)
from hopfdeform.hopf import (
    AxiomCheck,
    AxiomReport,
    CatalogEntry,
    HopfAlgebra,
    HopfPresentation,
    IsoCheck,
    IsoReport,
    MUTATIONS,
    as_structure,
    cartier_dual,
    catalog_build,
    deformation_hopf,
    double_dual_report,
    exhibit_isomorphism,
    generic_grouplike,
    grouplike_order,
    grouplike_power_matrix,
    hopf_presentation,
    hopf_quotient,
    is_grouplike,
    iso_alpha_product_to_dual_special,
    iso_constant_to_dual_generic,
    iso_mu_to_generic,
    iso_special_to_alpha_product,
    presentation_to_json,
    primitive_space,
    specialize_hopf,
    specialize_linear_map,
    verify_axioms,
)
from hopfdeform import cli, hopf
from hopfdeform.algebra import (
    AlgebraElement,
    LinearMap,
    MonomialQuotientAlgebra,
    algebra_hom,
    in_span,
    row_reduce,
    tensor_apply_left,
    tensor_apply_right,
)
from hopfdeform.rings import Fiber, FunctionField, LocalRing, PrimeField

PRIMES = [2, 3]

REQUIRED_CHECKS = [
    "multiplication is commutative",
    "comultiplication is an algebra map",
    "counit is an algebra map",
    "comultiplication is coassociative",
    "counit identities hold",
    "antipode identities hold",
]

ISO_CHECKS = [
    "base rings agree",
    "ranks agree",
    "map shape",
    "map is invertible",
    "unit preserved",
    "multiplication preserved",
    "counit preserved",
    "comultiplication preserved",
    "antipode preserved",
]


def random_element(rng, algebra):
    coeffs = {}
    for exps in algebra.iter_basis():
        k = rng.randrange(algebra.ring.p)
        if k:
            coeffs[exps] = algebra.ring.from_int(k)
    return algebra.element(coeffs)


class TestDeformationBuild:
    @pytest.mark.parametrize("p", PRIMES)
    def test_defining_data(self, p):
        h = deformation_hopf(p)
        A = h.algebra
        R = A.ring
        assert A.rank == p * p
        assert A.gens == ("x", "y")
        # y^p rewrites to t*x, x^p to zero
        assert A.rules[0] == {}
        assert A.rules[1] == {(1, 0): R.t()}

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_comultiplication_images(self, p):
        # The x image is computed as Delta(y)^p / t; it is the closed formula.
        h = deformation_hopf(p)
        A, sq, R = h.algebra, h.square, h.algebra.ring
        one, x, y = A.one(), A.gen(0), A.gen(1)
        dy = sq.pure_tensor(one, y) + sq.pure_tensor(y, one) + sq.pure_tensor(y, y) * R.t()
        dx = sq.pure_tensor(one, x) + sq.pure_tensor(x, one) + sq.pure_tensor(x, x) * R.t(p + 1)
        assert h.comul_images == (dx, dy)
        assert all(c.is_zero() for c in h.counit_scalars)

    @pytest.mark.parametrize("p", PRIMES)
    def test_mutations_damage_the_same_images(self, p, monkeypatch):
        h = deformation_hopf(p)
        A, sq, R = h.algebra, h.square, h.algebra.ring
        one, x, y = A.one(), A.gen(0), A.gen(1)
        dx = sq.pure_tensor(one, x) + sq.pure_tensor(x, one) + sq.pure_tensor(x, x) * R.t(p + 1)
        dy = sq.pure_tensor(one, y) + sq.pure_tensor(y, one) + sq.pure_tensor(y, y) * R.t()
        sx, sy = h.antipode_images
        expected = {
            None: ([dx, dy], [sx, sy]),
            "drop-comul-t-term": ([dx, sq.pure_tensor(one, y) + sq.pure_tensor(y, one)],
                                  [sx, sy]),
            "drop-comul-x-term": ([sq.pure_tensor(one, x) + sq.pure_tensor(x, one), dy],
                                  [sx, sy]),
            "corrupt-antipode": ([dx, dy], [sx, sy + x]),
        }
        assert set(expected) == set(MUTATIONS) | {None}
        # The comultiplication mutations admit no algebra map, so the images
        # are caught before hopf_presentation extends them.
        monkeypatch.setattr(hopf, "hopf_presentation",
                            lambda A, comul, counit, antipode: (comul, antipode))
        for mutation, images in expected.items():
            assert deformation_hopf(p, mutation) == images

    @pytest.mark.parametrize("p", PRIMES)
    def test_comul_respects_the_pth_power_relation(self, p):
        # Delta(y)^p = t * Delta(x), the identity that forces the x image.
        h = deformation_hopf(p)
        dx, dy = h.comul_images
        assert dy**p == dx * h.algebra.ring.t()
        assert dx**p == h.square.zero()

    @pytest.mark.parametrize("p", PRIMES)
    def test_antipode_images_against_defining_identity(self, p):
        # S(y) * (1 + t*y) = -y pins S(y) without going through invert_unit.
        h = deformation_hopf(p)
        A, R = h.algebra, h.algebra.ring
        one, x, y = A.one(), A.gen(0), A.gen(1)
        sx, sy = h.antipode_images
        assert sy * (one + y * R.t()) == -y
        assert sx * (one + x * R.t(p + 1)) == -x

    def test_y_nilpotency_degree_is_exactly_p_squared(self):
        for p in PRIMES:
            y = deformation_hopf(p).algebra.gen(1)
            assert not (y ** (p * p - 1)).is_zero()
            assert (y ** (p * p)).is_zero()


class TestAxioms:
    @pytest.mark.parametrize("p", PRIMES)
    def test_base_ring_axioms(self, p):
        report = verify_axioms(deformation_hopf(p))
        assert report.ok
        names = [c.name for c in report.checks if c.required]
        assert names == REQUIRED_CHECKS
        assert all(c.passed for c in report.checks)

    @pytest.mark.parametrize("p", PRIMES)
    @pytest.mark.parametrize("fiber", [Fiber.SPECIAL, Fiber.GENERIC])
    def test_fiber_axioms(self, p, fiber):
        h = specialize_hopf(deformation_hopf(p), fiber)
        assert verify_axioms(h).ok

    def test_cocommutativity_reported_but_not_required(self):
        report = verify_axioms(deformation_hopf(2))
        cocomm = [c for c in report.checks if c.name == "comultiplication is cocommutative"]
        assert len(cocomm) == 1
        assert not cocomm[0].required
        assert cocomm[0].passed  # this deformation happens to be cocommutative

    def test_report_serialization(self):
        d = verify_axioms(deformation_hopf(2)).to_dict()
        assert d["passed"] is True
        assert {c["name"] for c in d["checks"]} >= set(REQUIRED_CHECKS)


class TestMutations:
    """Deliberately broken inputs must fail, and fail in the right place."""

    @pytest.mark.parametrize("name", ["drop-comul-t-term", "drop-comul-x-term"])
    def test_comul_mutations_die_at_build(self, name):
        with pytest.raises(RelationViolationError):
            deformation_hopf(2, mutation=name)
        with pytest.raises(RelationViolationError):
            deformation_hopf(3, mutation=name)

    def test_corrupt_antipode_fails_only_the_antipode_axiom(self):
        report = verify_axioms(deformation_hopf(2, mutation="corrupt-antipode"))
        assert not report.ok
        failed = [c.name for c in report.checks if c.required and not c.passed]
        assert failed == ["antipode identities hold"]

    def test_unknown_mutation_rejected(self):
        with pytest.raises(UnsupportedParametersError):
            deformation_hopf(2, mutation="no-such-thing")
        assert set(MUTATIONS) == {
            "drop-comul-t-term", "drop-comul-x-term", "corrupt-antipode"
        }


class TestSpecialization:
    @pytest.mark.parametrize("p", PRIMES)
    def test_special_fiber_is_primitively_generated(self, p):
        sp = specialize_hopf(deformation_hopf(p), Fiber.SPECIAL)
        A, sq = sp.algebra, sp.square
        one = A.one()
        for i in range(2):
            g = A.gen(i)
            assert sp.comul_images[i] == sq.pure_tensor(one, g) + sq.pure_tensor(g, one)
        # both p-th power rules collapse at t = 0
        assert sp.algebra.rules == ({}, {})

    @pytest.mark.parametrize("p", PRIMES)
    def test_generic_fiber_keeps_the_deforming_term(self, p):
        ge = specialize_hopf(deformation_hopf(p), Fiber.GENERIC)
        sq, K = ge.square, ge.algebra.ring
        y = ge.algebra.gen(1)
        one = ge.algebra.one()
        expected = sq.pure_tensor(one, y) + sq.pure_tensor(y, one) + sq.pure_tensor(y, y) * K.t()
        assert ge.comul_images[1] == expected

    @pytest.mark.parametrize("fiber", [Fiber.SPECIAL, Fiber.GENERIC])
    def test_structure_maps_commute_with_specialization(self, fiber):
        h = deformation_hopf(3)
        hf = specialize_hopf(h, fiber)
        assert specialize_linear_map(h.comul, fiber) == hf.comul
        assert specialize_linear_map(h.counit, fiber) == hf.counit
        assert specialize_linear_map(h.antipode, fiber) == hf.antipode

    def test_specialization_needs_the_local_base(self):
        sp = specialize_hopf(deformation_hopf(2), Fiber.SPECIAL)
        with pytest.raises(ContextMismatchError):
            specialize_hopf(sp, Fiber.SPECIAL)


class TestGrouplikes:
    @pytest.mark.parametrize("p", PRIMES)
    def test_unit_plus_ty_has_order_p_squared(self, p):
        ge = specialize_hopf(deformation_hopf(p), Fiber.GENERIC)
        g = generic_grouplike(ge)
        assert is_grouplike(ge, g)
        assert grouplike_order(ge, g) == p * p

    @pytest.mark.parametrize("p", PRIMES)
    def test_pth_power_is_the_x_grouplike_of_order_p(self, p):
        ge = specialize_hopf(deformation_hopf(p), Fiber.GENERIC)
        A, K = ge.algebra, ge.algebra.ring
        g = generic_grouplike(ge)
        gp = g**p
        assert gp == A.one() + A.gen(0) * K.t(p + 1)
        assert is_grouplike(ge, gp)
        assert grouplike_order(ge, gp) == p

    def test_non_grouplike_rejected(self):
        ge = specialize_hopf(deformation_hopf(2), Fiber.GENERIC)
        one, y = ge.algebra.one(), ge.algebra.gen(1)
        assert not is_grouplike(ge, one + y)  # counit fine, comul wrong
        assert not is_grouplike(ge, y)  # counit is 0
        with pytest.raises(UnsupportedParametersError):
            grouplike_order(ge, one + y)

    def test_unit_is_grouplike_of_order_one(self):
        ge = specialize_hopf(deformation_hopf(2), Fiber.GENERIC)
        assert grouplike_order(ge, ge.algebra.one()) == 1

    def test_no_extra_grouplike_over_the_special_fiber(self):
        sp = specialize_hopf(deformation_hopf(2), Fiber.SPECIAL)
        one, x = sp.algebra.one(), sp.algebra.gen(0)
        assert not is_grouplike(sp, one + x)


class TestPrimitives:
    @pytest.mark.parametrize("p", PRIMES)
    def test_special_fiber_has_two_dimensional_primitive_space(self, p):
        sp = specialize_hopf(deformation_hopf(p), Fiber.SPECIAL)
        basis = primitive_space(sp)
        assert len(basis) == 2
        x, y = sp.algebra.gen(0), sp.algebra.gen(1)
        # the span contains both generators
        sq = sp.square
        one = sp.algebra.one()
        for g in (x, y):
            assert sp.comul_of(g) == sq.pure_tensor(one, g) + sq.pure_tensor(g, one)

    @pytest.mark.parametrize("p", PRIMES)
    def test_generic_fiber_has_no_primitives(self, p):
        ge = specialize_hopf(deformation_hopf(p), Fiber.GENERIC)
        assert primitive_space(ge) == []

    def test_multiplicative_kernels_have_no_primitives(self):
        # no additive characters on a multiplicative-type scheme
        for p, k in [(2, 1), (2, 2), (3, 1)]:
            entry = catalog_build("mu", p, k, Fiber.SPECIAL)
            assert primitive_space(entry.hopf) == []

    def test_primitive_space_needs_a_field(self):
        with pytest.raises(NotAFieldError):
            primitive_space(deformation_hopf(2))


class TestCatalog:
    @pytest.mark.parametrize("p", PRIMES)
    def test_alpha_p(self, p):
        entry = catalog_build("alpha_p", p, 1, Fiber.SPECIAL)
        assert entry.order == p
        assert entry.hopf.rank == p
        assert verify_axioms(entry.hopf).ok

    @pytest.mark.parametrize("p,k", [(2, 1), (2, 2), (3, 1), (3, 2)])
    def test_mu(self, p, k):
        entry = catalog_build("mu", p, k, Fiber.GENERIC)
        q = p**k
        z = entry.hopf.algebra.gen(0)
        assert (z**q) == entry.hopf.algebra.one()
        assert grouplike_order(entry.hopf, z) == q

    @pytest.mark.parametrize("p,k", [(2, 1), (2, 2), (3, 1)])
    def test_constant_cyclic_idempotents(self, p, k):
        entry = catalog_build("constant_cyclic", p, k, Fiber.SPECIAL)
        s = entry.hopf
        assert isinstance(s, HopfAlgebra)
        q = p**k
        one = s.ring.one()
        for a in range(q):
            for b in range(q):
                expected = {a: one} if a == b else {}
                assert s.mult_col(a, b) == expected
        assert s.unit == {j: one for j in range(q)}

    def test_catalog_rejections(self):
        with pytest.raises(UnsupportedParametersError):
            catalog_build("alpha_p", 2, 2)
        with pytest.raises(UnsupportedParametersError):
            catalog_build("mu", 2, 3)
        with pytest.raises(UnsupportedParametersError):
            catalog_build("borel", 2, 1)


class TestCartierDuality:
    @pytest.mark.parametrize("p", PRIMES)
    def test_dual_of_each_fiber_satisfies_the_axioms(self, p):
        h = deformation_hopf(p)
        for fiber in (Fiber.SPECIAL, Fiber.GENERIC):
            dual = cartier_dual(specialize_hopf(h, fiber))
            assert verify_axioms(dual).ok

    @pytest.mark.parametrize("p", PRIMES)
    def test_dual_of_generic_is_constant_cyclic_of_order_p_squared(self, p):
        ge = specialize_hopf(deformation_hopf(p), Fiber.GENERIC)
        const, dual, phi = iso_constant_to_dual_generic(ge)
        report = exhibit_isomorphism(const, dual, phi)
        assert report.ok, report.summary()

    @pytest.mark.parametrize("p", PRIMES)
    def test_dual_of_special_is_the_alpha_product(self, p):
        sp = specialize_hopf(deformation_hopf(p), Fiber.SPECIAL)
        product, dual, phi = iso_alpha_product_to_dual_special(sp)
        report = exhibit_isomorphism(product, dual, phi)
        assert report.ok, report.summary()

    @pytest.mark.parametrize("p", PRIMES)
    def test_alpha_p_is_self_dual(self, p):
        entry, dual, phi = hopf.catalog_dual(catalog_build("alpha_p", p, 1, Fiber.SPECIAL))
        assert exhibit_isomorphism(entry.hopf, dual, phi).ok

    @pytest.mark.parametrize("p,k", [(2, 1), (2, 2), (3, 1), (3, 2)])
    def test_mu_is_dual_to_the_constant_scheme(self, p, k):
        mu, dual, phi = hopf.catalog_dual(catalog_build("constant_cyclic", p, k, Fiber.GENERIC))
        assert exhibit_isomorphism(mu.hopf, dual, phi).ok

    @pytest.mark.parametrize("p", PRIMES)
    def test_double_dual_is_canonically_the_identity(self, p):
        h = deformation_hopf(p)
        for fiber in (Fiber.SPECIAL, Fiber.GENERIC):
            assert double_dual_report(specialize_hopf(h, fiber)).ok
        assert double_dual_report(h).ok

    def test_dual_requires_commutativity_and_cocommutativity(self):
        F = PrimeField(2)
        one = F.one()
        id2 = LinearMap.identity(F, 2)
        # mult table with e1*e1 = e0 but asymmetric cross terms
        asym_mult = LinearMap(F, 4, 2, [{0: one}, {1: one}, {}, {0: one}])
        comul = LinearMap(F, 2, 4, [{0: one}, {1: one}])
        counit = LinearMap(F, 2, 1, [{0: one}, {}])
        bad = HopfAlgebra(F, ("a", "b"), asym_mult, {0: one}, comul, counit, id2)
        with pytest.raises(NotCommutativeError):
            cartier_dual(bad)
        sym_mult = LinearMap(F, 4, 2, [{0: one}, {1: one}, {1: one}, {}])
        # sends b to a(x)b with no b(x)a partner
        asym_comul = LinearMap(F, 2, 4, [{0: one}, {1: one}])
        bad2 = HopfAlgebra(F, ("a", "b"), sym_mult, {0: one}, asym_comul, counit, id2)
        with pytest.raises(NotCocommutativeError):
            cartier_dual(bad2)
        # The double dual runs the guard once, with the same error and text.
        for h in (bad, bad2):
            with pytest.raises((NotCommutativeError, NotCocommutativeError)) as first:
                cartier_dual(h)
            with pytest.raises(first.type) as second:
                double_dual_report(h)
            assert str(second.value) == str(first.value)

    @pytest.mark.parametrize("p", PRIMES)
    def test_transpose_is_an_involution(self, p):
        structures = [catalog_build(name, p, k, fiber).hopf
                      for name, k in [("alpha_p", 1), ("mu", 1), ("mu", 2),
                                      ("constant_cyclic", 1), ("constant_cyclic", 2)]
                      for fiber in Fiber]
        structures += [specialize_hopf(deformation_hopf(p), fiber) for fiber in Fiber]
        for h in structures:
            s = as_structure(h)
            back = hopf._transpose(hopf._transpose(s))
            assert (back.mult, back.unit, back.comul, back.counit, back.antipode) == (
                s.mult, s.unit, s.comul, s.counit, s.antipode)

    def test_dual_errors_and_axiom_report_name_the_same_offender(self):
        F = PrimeField(2)
        one = F.one()
        id2 = LinearMap.identity(F, 2)
        counit = LinearMap(F, 2, 1, [{0: one}, {}])
        comul = LinearMap(F, 2, 4, [{0: one}, {1: one}])
        asym_mult = LinearMap(F, 4, 2, [{0: one}, {1: one}, {}, {0: one}])
        bad = HopfAlgebra(F, ("a", "b"), asym_mult, {0: one}, comul, counit, id2)
        with pytest.raises(NotCommutativeError) as exc:
            cartier_dual(bad)
        assert str(exc.value) == "multiplication is not commutative at a, b"
        checks = {c.name: c for c in verify_axioms(bad).checks}
        assert checks["multiplication is commutative"].detail == "a, b"
        sym_mult = LinearMap(F, 4, 2, [{0: one}, {1: one}, {1: one}, {}])
        bad2 = HopfAlgebra(F, ("a", "b"), sym_mult, {0: one}, comul, counit, id2)
        with pytest.raises(NotCocommutativeError) as exc:
            cartier_dual(bad2)
        assert str(exc.value) == "comultiplication is not cocommutative at b"
        checks = {c.name: c for c in verify_axioms(bad2).checks}
        assert checks["multiplication is commutative"].passed
        assert checks["comultiplication is cocommutative"].detail == "b"
        assert not checks["comultiplication is cocommutative"].required


class TestFiberIdentifications:
    @pytest.mark.parametrize("p", PRIMES)
    def test_special_fiber_splits_as_product_of_additive_kernels(self, p):
        sp = specialize_hopf(deformation_hopf(p), Fiber.SPECIAL)
        target, phi = iso_special_to_alpha_product(sp)
        report = exhibit_isomorphism(sp, target, phi)
        assert report.ok, report.summary()

    @pytest.mark.parametrize("p", PRIMES)
    def test_generic_fiber_is_multiplicative_of_order_p_squared(self, p):
        ge = specialize_hopf(deformation_hopf(p), Fiber.GENERIC)
        mu, phi = iso_mu_to_generic(ge)
        report = exhibit_isomorphism(mu, ge, phi)
        assert report.ok, report.summary()

    def test_grouplike_power_matrix_columns(self):
        ge = specialize_hopf(deformation_hopf(2), Fiber.GENERIC)
        b = grouplike_power_matrix(ge)
        g = generic_grouplike(ge)
        acc = ge.algebra.one()
        for j in range(4):
            assert b.cols[j] == acc.vec()
            acc = acc * g

    def test_wrong_map_is_reported_not_silently_accepted(self):
        sp = specialize_hopf(deformation_hopf(2), Fiber.SPECIAL)
        target, phi = iso_special_to_alpha_product(sp)
        # scaling the unit column breaks unit preservation first
        F = sp.algebra.ring
        bad_cols = [dict(c) for c in phi.cols]
        bad_cols[0] = {k: v + v for k, v in bad_cols[0].items()}  # 2 = 0 in F_2, so drop
        bad_cols[0] = {1: F.one()}
        bad = LinearMap(F, 4, 4, bad_cols)
        report = exhibit_isomorphism(sp, target, bad)
        assert not report.ok
        assert report.first_failure is not None

    def test_rank_mismatch_short_circuits(self):
        sp = specialize_hopf(deformation_hopf(2), Fiber.SPECIAL)
        alpha = catalog_build("alpha_p", 2, 1, Fiber.SPECIAL).hopf
        ring = sp.algebra.ring
        report = exhibit_isomorphism(sp, alpha, LinearMap.identity(ring, 4))
        assert not report.ok
        assert report.first_failure.name == "ranks agree"


class TestHopfQuotient:
    @pytest.mark.parametrize("p", PRIMES)
    def test_quotient_by_x_is_rank_p_with_deformed_comul(self, p):
        h = deformation_hopf(p)
        q = hopf_quotient(h, [h.algebra.gen(0)])
        assert q.algebra.gens == ("y",)
        assert q.rank == p
        assert q.algebra.rules == ({},)  # y^p = 0 once t*x is killed
        sq, R = q.square, q.algebra.ring
        y, one = q.algebra.gen(0), q.algebra.one()
        expected = sq.pure_tensor(one, y) + sq.pure_tensor(y, one) + sq.pure_tensor(y, y) * R.t()
        assert q.comul_images[0] == expected
        assert verify_axioms(q).ok

    @pytest.mark.parametrize("p", PRIMES)
    def test_quotient_by_y_is_not_free(self, p):
        h = deformation_hopf(p)
        with pytest.raises(NotFreeQuotientError) as exc:
            hopf_quotient(h, [h.algebra.gen(1)])
        assert "not free" in str(exc.value)

    def test_quotient_by_zero_returns_the_input(self):
        h = deformation_hopf(2)
        assert hopf_quotient(h, [h.algebra.zero()]) is h
        assert hopf_quotient(h, []) is h

    def test_quotient_by_both_generators_is_trivial(self):
        h = deformation_hopf(2)
        q = hopf_quotient(h, [h.algebra.gen(0), h.algebra.gen(1)])
        assert q.rank == 1
        assert verify_axioms(q).ok

    def test_non_generator_ideals_rejected(self):
        h = deformation_hopf(2)
        x, y = h.algebra.gen(0), h.algebra.gen(1)
        with pytest.raises(UnsupportedParametersError):
            hopf_quotient(h, [x + y])
        with pytest.raises(UnsupportedParametersError):
            hopf_quotient(h, [x * y])

    def test_foreign_elements_rejected(self):
        h2, h3 = deformation_hopf(2), deformation_hopf(3)
        with pytest.raises(ParentMismatchError):
            hopf_quotient(h2, [h3.algebra.gen(0)])

    def test_counit_obstruction_detected(self):
        # against mu the generator has counit 1, so (z) is not a Hopf ideal
        mu = catalog_build("mu", 2, 1, Fiber.SPECIAL).hopf
        with pytest.raises(NotAHopfIdealError):
            hopf_quotient(mu, [mu.algebra.gen(0)])


def projection_off(monkeypatch):
    monkeypatch.setattr(hopf, "_unit_pivot_projection", lambda *args: None)


def counting_projections(monkeypatch):
    """The projections hopf_quotient takes its comultiplication test to."""
    real = hopf._unit_pivot_projection
    taken = []

    def counting(*args):
        pi = real(*args)
        if pi is not None:
            taken.append(pi)
        return pi

    monkeypatch.setattr(hopf, "_unit_pivot_projection", counting)
    return taken


def quotient_outcome(h, gens):
    """What hopf_quotient gives: the quotient's JSON and axiom report, or the
    error's type and message."""
    try:
        q = hopf_quotient(h, gens)
    except (NotAHopfIdealError, NotFreeQuotientError, UnsupportedParametersError) as exc:
        return type(exc).__name__, str(exc)
    return json.dumps(presentation_to_json(q)), verify_axioms(q).to_dict()


def leaky_presentation(p, ring):
    """F_p[x,y]/(x^p, y^p) with Delta(x) = x(x)1 + 1(x)x + y(x)y, y primitive,
    S = -id on the generators and counit 0.  The counit and antipode keep
    (x), but Delta(x) leaves (x)(x)H + H(x)(x) through y(x)y."""
    A = MonomialQuotientAlgebra(ring, ("x", "y"), (p, p), [{}, {}])
    sq = A.tensor(A)
    x, y, one = A.gen(0), A.gen(1), A.one()
    return hopf_presentation(
        A,
        [sq.pure_tensor(x, one) + sq.pure_tensor(one, x) + sq.pure_tensor(y, y),
         sq.pure_tensor(y, one) + sq.pure_tensor(one, y)],
        [ring.zero(), ring.zero()],
        [-x, -y],
    )


class TestUnitPivotProjection:
    """On seeded echelon forms, _unit_pivot_projection is the projection onto
    the non-pivot basis vectors along the rows' span, and it refuses exactly
    the forms with a non-unit pivot."""

    @pytest.mark.parametrize("ring", [PrimeField(5), FunctionField(5), LocalRing(5)],
                             ids=["F5", "F5(t)", "F5[t]_(t)"])
    def test_projection_along_the_span(self, ring):
        rng = random.Random(20261020)
        r = 6
        taken = refused = 0
        for _ in range(60):
            rows = []
            for _ in range(rng.randrange(1, r)):
                row = {}
                for j in rng.sample(range(r), rng.randrange(1, 4)):
                    c = ring.from_int(rng.randrange(1, 5))
                    row[j] = c * ring.t() if hasattr(ring, "t") and rng.random() < 0.3 else c
                rows.append(row)
            ideal = row_reduce(rows)
            pi = hopf._unit_pivot_projection(ideal, ring, r)
            if pi is None:
                refused += 1
                assert not all(row[col].is_unit() for col, row in ideal)
                continue
            taken += 1
            pivots = {col for col, _ in ideal}
            for _, row in ideal:
                assert pi.apply(row) == {}
            for j in range(r):
                image = pi.apply({j: ring.one()})
                assert not pivots & image.keys()
                if j not in pivots:
                    assert image == {j: ring.one()}
                rest = {i: -c for i, c in image.items()}
                rest[j] = rest.get(j, ring.zero()) + ring.one()
                assert in_span(ideal, rest)
        assert taken
        assert refused if isinstance(ring, LocalRing) else not refused


class TestProjectionOracle:
    """Quotients whose comultiplication test runs through the projection
    along the ideal equal the quotients of the elimination of the
    I(x)H + H(x)I spanning columns, errors included."""

    @staticmethod
    def cases(p):
        h = deformation_hopf(p)
        out = []
        for s in (h, specialize_hopf(h, Fiber.SPECIAL), specialize_hopf(h, Fiber.GENERIC)):
            x, y = s.algebra.gen(0), s.algebra.gen(1)
            out += [(s, [x]), (s, [y]), (s, [x, y])]
        for name, k in [("alpha_p", 1), ("mu", 1), ("mu", 2)]:
            for fiber in Fiber:
                s = catalog_build(name, p, k, fiber).hopf
                out.append((s, [s.algebra.gen(0)]))
        return out

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_both_paths_give_the_same_quotients(self, monkeypatch, p):
        taken = counting_projections(monkeypatch)
        on = [quotient_outcome(s, gens) for s, gens in self.cases(p)]
        # The three ideals on the three structures, less (y) over R, and
        # alpha_p on both fibers (mu fails at its counit first).
        assert len(taken) == 10
        assert on[0][1]["passed"] and on[1][0] == "NotFreeQuotientError"
        projection_off(monkeypatch)
        taken.clear()
        off = [quotient_outcome(s, gens) for s, gens in self.cases(p)]
        assert taken == []
        assert on == off

    @pytest.mark.parametrize("p", PRIMES)
    @pytest.mark.parametrize("local", [False, True])
    def test_leaky_comultiplication_fails_on_both_paths(self, monkeypatch, p, local):
        h = leaky_presentation(p, LocalRing(p) if local else PrimeField(p))
        x = h.algebra.gen(0)
        message = "comultiplication of x leaves ideal(x)algebra + algebra(x)ideal"
        taken = counting_projections(monkeypatch)
        with pytest.raises(NotAHopfIdealError) as on:
            hopf_quotient(h, [x])
        assert len(taken) == 1
        projection_off(monkeypatch)
        with pytest.raises(NotAHopfIdealError) as off:
            hopf_quotient(h, [x])
        assert str(on.value) == str(off.value) == message


def counting_row_reduce(monkeypatch):
    """The number of rows of each hopf.row_reduce call, in order."""
    real = hopf.row_reduce
    sizes = []

    def counting(rows):
        rows = list(rows)
        sizes.append(len(rows))
        return real(rows)

    monkeypatch.setattr(hopf, "row_reduce", counting)
    return sizes


class TestQuotientWork:
    def test_unit_pivots_skip_the_side_space_elimination(self, monkeypatch):
        h = deformation_hopf(5)
        sizes = counting_row_reduce(monkeypatch)
        q = hopf_quotient(h, [h.algebra.gen(0)])
        assert q.rank == 5
        assert sizes and max(sizes) <= h.algebra.rank

    def test_a_non_unit_pivot_still_eliminates_the_side_space(self, monkeypatch, capsys):
        sizes = counting_row_reduce(monkeypatch)
        assert cli.main(["--format", "json", "quotient", "--p", "3", "--kill", "y"]) == 1
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["kind"] == "NotFreeQuotientError"
        # 2 * |I| * rank spanning columns of I(x)H + H(x)I, |I| = 8 at p = 3
        assert max(sizes) == 2 * 8 * 9


class TestAntipodeProperties:
    def test_antipode_is_multiplicative_on_random_elements(self):
        rng = random.Random(20260823)
        for p in PRIMES:
            h = specialize_hopf(deformation_hopf(p), Fiber.SPECIAL)
            for _ in range(10):
                a = random_element(rng, h.algebra)
                b = random_element(rng, h.algebra)
                assert h.antipode_of(a * b) == h.antipode_of(a) * h.antipode_of(b)

    @pytest.mark.parametrize("p", PRIMES)
    def test_antipode_is_an_involution_here(self, p):
        h = deformation_hopf(p)
        s = h.antipode
        assert s.compose(s) == LinearMap.identity(h.ring, h.rank)

    def test_antipode_inverts_grouplikes(self):
        ge = specialize_hopf(deformation_hopf(3), Fiber.GENERIC)
        g = generic_grouplike(ge)
        assert ge.antipode_of(g) * g == ge.algebra.one()


class TestStructureForm:
    def test_labels_follow_the_monomial_basis(self):
        s = as_structure(deformation_hopf(2))
        assert list(s.labels) == ["1", "y", "x", "x*y"]

    def test_vec_mult_matches_element_multiplication(self):
        h = deformation_hopf(2)
        s = as_structure(h)
        rng = random.Random(7)
        for _ in range(10):
            a = random_element(rng, h.algebra)
            b = random_element(rng, h.algebra)
            assert s.vec_mult(a.vec(), b.vec()) == (a * b).vec()
            # square_mult is the product of the tensor square, indexed i*rank + j
            a2 = random_element(rng, h.square)
            b2 = random_element(rng, h.square)
            assert s.square_mult(a2.vec(), b2.vec()) == (a2 * b2).vec()

    def test_counit_of_vector(self):
        ge = specialize_hopf(deformation_hopf(2), Fiber.GENERIC)
        s = as_structure(ge)
        g = generic_grouplike(ge)
        assert s.counit_of(g.vec()) == ge.algebra.ring.one()


def dense_vec_mult(s, u, v):
    """Reference product: every index pair, no column skipped."""
    r, zero = s.rank, s.ring.zero()
    out = {}
    for i in range(r):
        for j in range(r):
            c = u.get(i, zero) * v.get(j, zero)
            for k, m in s.mult.cols[i * r + j].items():
                out[k] = out.get(k, zero) + c * m
    return {k: c for k, c in out.items() if not c.is_zero()}


def dense_square_mult(s, u, v):
    """Reference product in H(x)H: every pair of tensor indices, no column skipped."""
    r, zero = s.rank, s.ring.zero()
    out = {}
    for ij in range(r * r):
        i, j = divmod(ij, r)
        for kl in range(r * r):
            k, l = divmod(kl, r)
            c = u.get(ij, zero) * v.get(kl, zero)
            for t1, c1 in s.mult.cols[i * r + k].items():
                for t2, c2 in s.mult.cols[j * r + l].items():
                    out[t1 * r + t2] = out.get(t1 * r + t2, zero) + c * c1 * c2
    return {k: c for k, c in out.items() if not c.is_zero()}


class TestKernelsAgainstDenseReference:
    """The structure-tensor kernels skip empty columns; the dense sums do not."""

    @staticmethod
    def scalar(rng, ring):
        c = ring.from_int(rng.randrange(ring.p)) * ring.t(rng.randrange(3))
        return c / (ring.one() + ring.t()) if rng.randrange(2) else c

    def vectors(self, rng, ring, dim, count):
        return [
            {i: c for i in range(dim) if not (c := self.scalar(rng, ring)).is_zero()}
            for _ in range(count)
        ]

    @pytest.mark.parametrize("which", ["constant_cyclic", "deformation"])
    def test_vec_mult_and_square_mult(self, which):
        if which == "constant_cyclic":
            s = as_structure(catalog_build("constant_cyclic", 3, 2, Fiber.GENERIC).hopf)
        else:
            s = as_structure(deformation_hopf(3))
        r = s.rank
        rng = random.Random(3)
        singles = [{i: s.ring.one()} for i in range(r)] + self.vectors(rng, s.ring, r, 4)
        for u in singles:
            for v in singles[::3]:
                assert s.vec_mult(u, v) == dense_vec_mult(s, u, v)
        squares = list(s.comul.cols) + self.vectors(rng, s.ring, r * r, 2)
        for u in squares[::2]:
            for v in squares[1::3]:
                assert s.square_mult(u, v) == dense_square_mult(s, u, v)

    @staticmethod
    def t_power_scalar(rng, ring):
        """c * t^a / t^b over F_p(t); zero about one time in five."""
        c = ring.from_int(rng.randrange(ring.p)) * ring.t(rng.randrange(4))
        return c / ring.t(rng.randrange(1, 6))

    def t_power_vectors(self, rng, ring, dim, count, density):
        return [
            {i: c for i in range(dim)
             if rng.random() < density and not (c := self.t_power_scalar(rng, ring)).is_zero()}
            for _ in range(count)
        ]

    @pytest.mark.parametrize("which", ["constant_cyclic", "generic_fiber", "generic_dual"])
    def test_scalars_with_t_power_denominators(self, which):
        if which == "constant_cyclic":
            s = as_structure(catalog_build("constant_cyclic", 3, 2, Fiber.GENERIC).hopf)
        else:
            s = as_structure(specialize_hopf(deformation_hopf(3), Fiber.GENERIC))
            if which == "generic_dual":
                s = cartier_dual(s)
        r = s.rank
        rng = random.Random(5)
        singles = self.t_power_vectors(rng, s.ring, r, 6, 0.6)
        for u in singles:
            for v in singles[::2]:
                assert s.vec_mult(u, v) == dense_vec_mult(s, u, v)
        squares = self.t_power_vectors(rng, s.ring, r * r, 4, 0.1)
        for u in squares[:2]:
            for v in squares[2:]:
                assert s.square_mult(u, v) == dense_square_mult(s, u, v)

    def test_generic_constant_cyclic_p5_k2(self):
        # The structure whose verify_axioms dominates `dual --p 5 --name mu`.
        s = as_structure(catalog_build("constant_cyclic", 5, 2, Fiber.GENERIC).hopf)
        r = s.rank
        rng = random.Random(25)
        singles = [{i: s.ring.one()} for i in range(0, r, 6)]
        singles += self.t_power_vectors(rng, s.ring, r, 2, 0.5)
        for u in singles:
            for v in singles:
                assert s.vec_mult(u, v) == dense_vec_mult(s, u, v)
        for u, v in ((s.comul.cols[1], s.comul.cols[7]),
                     (s.comul.cols[3], self.t_power_vectors(rng, s.ring, r * r, 1, 0.05)[0])):
            assert s.square_mult(u, v) == dense_square_mult(s, u, v)

    def test_sums_that_cancel_and_then_continue(self):
        # Entry 0 of each result is a*c, then -a*c (a zero sum), then b*d: the
        # kernels keep the zero until the vector is done and must drop only
        # what is zero at the end.
        F = FunctionField(3)
        a, b = F.from_int(2) / F.t(2), (F.one() + F.t()) / F.t(3)
        c, d = F.one() / F.t(), F.t(2) / F.t(5)
        f = LinearMap(F, 3, 2, [{0: a}, {0: -a}, {0: b, 1: b}])
        assert f.apply({0: c, 1: c, 2: d}) == {0: b * d, 1: b * d}
        assert f.apply({0: c, 1: c}) == {}
        assert tensor_apply_left(f, 2, {1: c, 3: c, 5: d}) == {1: b * d, 3: b * d}
        assert tensor_apply_left(f, 2, {1: c, 3: c}) == {}
        assert tensor_apply_right(f, {3: c, 4: c, 5: d}) == {2: b * d, 3: b * d}
        assert tensor_apply_right(f, {3: c, 4: c}) == {}

        rng = random.Random(13)
        u = {}
        while len(u) < 4:
            u = self.t_power_vectors(rng, F, 9, 1, 0.8)[0]
        minus_u = {i: -x for i, x in u.items()}
        assert hopf._sum([u, minus_u, u]) == u
        assert hopf._sum([u, minus_u]) == {}
        assert hopf._sum([minus_u, u, u, u]) == {i: x + x for i, x in u.items()}

    def test_operands_sparser_and_denser_than_the_index(self):
        # Each kernel loops over the operand or over the index rows, whichever
        # is smaller; both choices must occur here and agree with the dense sums.
        s = as_structure(deformation_hopf(3))
        r = s.rank
        rng = random.Random(9)
        singles = [{i: s.ring.one()} for i in range(r)] + self.vectors(rng, s.ring, r, 3)
        choices = set()
        for u in singles:
            for v in singles[::2]:
                choices |= {len(v) <= len(s._by_left[i]) for i in u}
                assert s.vec_mult(u, v) == dense_vec_mult(s, u, v)
        assert choices == {True, False}
        squares = [{ij: s.ring.one()} for ij in range(0, r * r, 10)]
        squares += list(s.comul.cols[::3]) + self.vectors(rng, s.ring, r * r, 1)
        choices = set()
        for u in squares[::2]:
            for v in squares[1::2]:
                choices |= {len(v) <= len(s._by_left[ij // r]) * len(s._by_left[ij % r])
                            for ij in u}
                assert s.square_mult(u, v) == dense_square_mult(s, u, v)
        assert choices == {True, False}

    @staticmethod
    def sweedler(antipode_of_x_sign=-1):
        """Sweedler's 4-dimensional Hopf algebra over F_3 on the basis 1, g, x, gx:
        g^2 = 1, x^2 = 0, xg = -gx, comul(x) = x(x)1 + g(x)x, S(x) = -gx.
        Neither commutative nor cocommutative."""
        F = PrimeField(3)
        one, neg = F.one(), F.from_int(-1)
        table = {  # (left, right) -> {basis index: coefficient}, basis 1, g, x, gx
            (1, 1): {0: one}, (1, 2): {3: one}, (1, 3): {2: one},
            (2, 1): {3: neg}, (3, 1): {2: neg},
        }
        mult = LinearMap(F, 16, 4, [
            {j: one} if i == 0 else {i: one} if j == 0 else table.get((i, j), {})
            for i in range(4) for j in range(4)
        ])
        comul = LinearMap(F, 4, 16, [{0: one}, {5: one}, {8: one, 6: one}, {13: one, 3: one}])
        counit = LinearMap(F, 4, 1, [{0: one}, {0: one}, {}, {}])
        antipode = LinearMap(F, 4, 4, [{0: one}, {1: one},
                                       {3: F.from_int(antipode_of_x_sign)}, {2: one}])
        return HopfAlgebra(F, ("1", "g", "x", "gx"), mult, {0: one}, comul, counit, antipode)

    def test_antipode_loops_on_a_noncommutative_structure(self):
        # S(e_i)*e_j and e_i*S(e_j) read the index by right and by left factor;
        # here the two orders of a product differ.
        s = self.sweedler()
        assert s.vec_mult({1: s.ring.one()}, {2: s.ring.one()}) != s.vec_mult(
            {2: s.ring.one()}, {1: s.ring.one()})
        report = verify_axioms(s)
        assert [c.name for c in report.failures()] == [
            "multiplication is commutative", "comultiplication is cocommutative"]
        bad = verify_axioms(self.sweedler(antipode_of_x_sign=1))
        assert [(c.name, c.detail) for c in bad.failures() if c.required] == [
            ("multiplication is commutative", "g, x"), ("antipode identities hold", "x")]


class TestSerialization:
    def test_json_payload_shape(self):
        h = deformation_hopf(2)
        d = presentation_to_json(h)
        assert d["schema"] == 1
        assert d["p"] == 2
        assert d["generators"] == ["x", "y"]
        assert d["bounds"] == [2, 2]
        assert d["rules"] == {"x": "0", "y": "t*x"}
        assert d["comultiplication"]["y"] == "1⊗y + y⊗1 + t*y⊗y"
        assert d["counit"] == {"x": "0", "y": "0"}

    def test_payload_is_deterministic(self):
        a = presentation_to_json(deformation_hopf(3))
        b = presentation_to_json(deformation_hopf(3))
        assert a == b


class TestReportConstructors:
    """The report records keep their positional order and defaults, and each
    report gets a list of checks of its own."""

    def test_axiom_check_defaults(self):
        c = AxiomCheck("n", True)
        assert (c.name, c.passed, c.required, c.detail) == ("n", True, True, None)
        c = AxiomCheck("n", False, False, "x")
        assert (c.required, c.detail) == (False, "x")
        c = AxiomCheck(name="n", passed=False, detail="y")
        assert (c.required, c.detail) == (True, "y")

    def test_iso_check_defaults(self):
        c = IsoCheck("n", True)
        assert (c.name, c.passed, c.detail) == ("n", True, None)
        assert IsoCheck(name="n", passed=False, detail="x").detail == "x"

    @pytest.mark.parametrize("report_cls", [AxiomReport, IsoReport])
    def test_default_checks_are_not_shared(self, report_cls):
        a, b = report_cls(), report_cls()
        assert a.checks == [] and a.checks is not b.checks
        a.checks.append(object())
        assert b.checks == [] and report_cls().checks == []
        given = [IsoCheck("n", True)]
        assert report_cls(given).checks is given
        assert report_cls(checks=given).checks is given

    def test_catalog_entry_fields(self):
        h = object()
        entry = CatalogEntry("mu", 3, 2, Fiber.GENERIC, h)
        assert (entry.name, entry.p, entry.k, entry.fiber, entry.hopf) == (
            "mu", 3, 2, Fiber.GENERIC, h)
        assert entry.order == 9
        entry = CatalogEntry(name="alpha_p", p=2, k=1, fiber=Fiber.SPECIAL, hopf=h)
        assert entry.order == 2


class TestReportOracle:
    """verify_axioms and exhibit_isomorphism on seeded broken structures and maps.

    Each sample adds one or two entries to one structure tensor (sometimes
    also to the unit) of a verified structure, and checks an identity map,
    itself sometimes perturbed, from the verified structure to the broken
    one.  The digest pins every report, offender labels included.
    """

    DIGEST = "30468a1558952afaa5bf8667a6d3b0ddb7a5b133f9dafc2688911c341200e319"
    SAMPLES_PER_BASE = 24

    @staticmethod
    def bases():
        out = []
        for p in PRIMES:
            for name, k in (("alpha_p", 1), ("mu", 1), ("mu", 2),
                            ("constant_cyclic", 1), ("constant_cyclic", 2)):
                out.append(as_structure(catalog_build(name, p, k).hopf))
            out.append(as_structure(specialize_hopf(deformation_hopf(p), Fiber.SPECIAL)))
        out.append(as_structure(catalog_build("mu", 2, 1, Fiber.GENERIC).hopf))
        out.append(as_structure(deformation_hopf(2)))
        out.append(TestKernelsAgainstDenseReference.sweedler())
        return out

    @staticmethod
    def scalar(rng, ring):
        c = ring.from_int(rng.randrange(1, ring.p))
        return c * ring.t() if hasattr(ring, "t") and rng.randrange(2) else c

    def bumped(self, rng, m, ring):
        """m with one or two entries changed by a nonzero scalar."""
        cols = [dict(col) for col in m.cols]
        for _ in range(rng.randrange(1, 3)):
            col, row = rng.randrange(m.source_dim), rng.randrange(m.target_dim)
            cols[col][row] = cols[col].get(row, ring.zero()) + self.scalar(rng, ring)
        return LinearMap(ring, m.source_dim, m.target_dim, cols)

    def broken(self, rng, s):
        maps = {"mult": s.mult, "comul": s.comul, "counit": s.counit, "antipode": s.antipode}
        which = rng.choice(sorted(maps))
        maps[which] = self.bumped(rng, maps[which], s.ring)
        unit = dict(s.unit)
        if rng.randrange(6) == 0:
            i = rng.randrange(s.rank)
            unit[i] = unit.get(i, s.ring.zero()) + self.scalar(rng, s.ring)
        return HopfAlgebra(s.ring, s.labels, maps["mult"], unit, maps["comul"],
                           maps["counit"], maps["antipode"])

    def reports(self):
        rng = random.Random(20261018)
        out = []
        for s in self.bases():
            ident = LinearMap.identity(s.ring, s.rank)
            for _ in range(self.SAMPLES_PER_BASE):
                b = self.broken(rng, s)
                phi = self.bumped(rng, ident, s.ring) if rng.randrange(4) else ident
                out.append(verify_axioms(b).to_dict())
                out.append(exhibit_isomorphism(s, b, phi).to_dict())
        # The three checks that stop a report early.
        a2, a3 = (as_structure(catalog_build("alpha_p", p).hopf) for p in PRIMES)
        mu4 = as_structure(catalog_build("mu", 2, 2).hopf)
        out.append(exhibit_isomorphism(a2, a3, LinearMap.identity(a2.ring, 2)).to_dict())
        out.append(exhibit_isomorphism(a2, mu4, LinearMap.identity(a2.ring, 2)).to_dict())
        out.append(exhibit_isomorphism(a2, a2, LinearMap.identity(a2.ring, 4)).to_dict())
        return out

    def test_reports_match_the_pinned_digest(self):
        reports = self.reports()
        failed = {c["name"] for rep in reports for c in rep["checks"] if not c["passed"]}
        assert failed == set(REQUIRED_CHECKS + ISO_CHECKS) | {"comultiplication is cocommutative"}
        digest = hashlib.sha256(json.dumps(reports).encode()).hexdigest()
        assert digest == self.DIGEST


def constant_lift(s):
    """A t-free structure over F_p(t) with every constant c/1 moved to F_p[t]_(t)."""
    R = LocalRing(s.ring.p)

    def lift(vec):
        for c in vec.values():
            assert c.den.coeffs == (1,) and c.num.degree <= 0
        return {i: R.from_int(c.num.at_zero()) for i, c in vec.items()}

    def lift_map(m):
        return LinearMap(R, m.source_dim, m.target_dim, [lift(col) for col in m.cols])

    return HopfAlgebra(R, s.labels, lift_map(s.mult), lift(s.unit), lift_map(s.comul),
                       lift_map(s.counit), lift_map(s.antipode))


def conversion_off(monkeypatch):
    """Turn the one conversion to residues off: every check runs over the
    ring of the structure it is given."""
    monkeypatch.setattr(hopf, "_at_one", lambda sides, phi=None: None)


def counting_conversions(monkeypatch):
    """Every residue structure the one conversion forms, in order."""
    real = hopf._at_one
    formed = []

    def counting(sides, phi=None):
        out = real(sides, phi)
        formed.extend(d for d, s in zip(out or (), sides) if d is not s)
        return out

    monkeypatch.setattr(hopf, "_at_one", counting)
    return formed


def descends(h):
    """Whether the one conversion reads h over F_p[t]_(t) or F_p(t) as a
    t-free structure: every constant c*t^0, the residues of c/1 in F_p."""
    s = as_structure(h)
    d = hopf.checked_structure(s)
    return d is not s and d.degrees is None and not isinstance(s.ring, PrimeField)


class TestDescentScope:
    """Which structures verify_axioms and exhibit_isomorphism check over F_p."""

    @pytest.mark.parametrize("p", PRIMES)
    @pytest.mark.parametrize("name,k", [("alpha_p", 1), ("mu", 1), ("mu", 2),
                                        ("constant_cyclic", 1), ("constant_cyclic", 2)])
    def test_generic_catalog_descends_to_the_special_entry(self, p, name, k):
        # A t-free structure over F_p(t) comes down to the same tensors over F_p,
        # which is how the catalog builds the entry over the special fiber.
        s = as_structure(catalog_build(name, p, k, Fiber.GENERIC).hopf)
        d = hopf.checked_structure(s)
        special = as_structure(catalog_build(name, p, k, Fiber.SPECIAL).hopf)
        assert d.ring == PrimeField(p) and d.labels == s.labels and descends(s)
        assert (d.mult, d.comul, d.counit, d.antipode, d.unit) == (
            special.mult.residues(), special.comul.residues(), special.counit.residues(),
            special.antipode.residues(), residues_of(special.unit))
        assert hopf.checked_structure(constant_lift(s)).comul == special.comul.residues()
        # Over F_p there is nothing to descend.
        assert not descends(special)

    @pytest.mark.parametrize("name,k", [("alpha_p", 1), ("mu", 2), ("constant_cyclic", 2)])
    def test_dual_checks_on_the_generic_fiber_run_over_the_prime_field(
            self, capsys, monkeypatch, name, k):
        counts = {}
        for kernel in ("square_mult", "vec_mult"):
            real = getattr(HopfAlgebra, kernel)

            def counting(s, u, v, real=real, kernel=kernel):
                key = (kernel, type(s.ring).__name__)
                counts[key] = counts.get(key, 0) + 1
                return real(s, u, v)
            monkeypatch.setattr(HopfAlgebra, kernel, counting)
        argv = ["--format", "json", "dual", "--p", "3", "--fiber", "generic",
                "--power", str(k), "--name", name]
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        assert {ring for _, ring in counts} == {"PrimeField"}
        assert counts[("square_mult", "PrimeField")] > 0
        # Negative control: with the conversion off the same checks run over
        # F_3(t) and print the same bytes.
        counts.clear()
        conversion_off(monkeypatch)
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == out
        assert {ring for _, ring in counts} == {"FunctionField"}

    def test_the_deformation_and_its_mutations_do_not_descend(self):
        h = deformation_hopf(3)
        s = as_structure(h)
        assert not descends(s)
        for fiber in Fiber:
            fibered = as_structure(specialize_hopf(h, fiber))
            assert not descends(fibered)
        assert not descends(as_structure(deformation_hopf(3, "corrupt-antipode")))
        # The two comultiplication mutations admit no algebra map, so their
        # broken generator images go straight into the tensor.
        A, sq = h.algebra, h.square
        one, x, y = A.one(), A.gen(0), A.gen(1)
        broken = {"drop-comul-t-term": ((0, 1), sq.pure_tensor(one, y) + sq.pure_tensor(y, one)),
                  "drop-comul-x-term": ((1, 0), sq.pure_tensor(one, x) + sq.pure_tensor(x, one))}
        assert set(broken) | {"corrupt-antipode"} == set(MUTATIONS)
        for mutation, (exps, image) in broken.items():
            with pytest.raises(RelationViolationError):
                deformation_hopf(3, mutation)
            cols = list(s.comul.cols)
            cols[A.index(exps)] = image.vec()
            comul = LinearMap(s.ring, s.rank, s.rank * s.rank, cols)
            m = HopfAlgebra(s.ring, s.labels, s.mult, s.unit, comul, s.counit, s.antipode)
            assert not descends(m)

    @pytest.mark.parametrize("which", ["mult", "comul", "counit", "antipode", "unit"])
    @pytest.mark.parametrize("scalar", ["t", "1/t", "1/(1+t)", "local 1/(1+t)"])
    def test_one_t_scalar_stops_the_descent(self, which, scalar):
        s = as_structure(catalog_build("constant_cyclic", 3, 1, Fiber.GENERIC).hopf)
        if scalar.startswith("local"):
            s = constant_lift(s)
        one, t = s.ring.one(), s.ring.t()
        t = t if scalar == "t" else one / t if scalar == "1/t" else one / (one + t)
        maps = {"mult": s.mult, "comul": s.comul, "counit": s.counit, "antipode": s.antipode}
        unit = dict(s.unit)
        if which == "unit":
            unit[0] = unit[0] * t
        else:
            m = maps[which]
            cols = [dict(col) for col in m.cols]
            col = next(j for j, c in enumerate(cols) if c)
            row = next(iter(cols[col]))
            cols[col][row] = cols[col][row] + t
            maps[which] = LinearMap(s.ring, m.source_dim, m.target_dim, cols)
        bumped = HopfAlgebra(s.ring, s.labels, maps["mult"], unit, maps["comul"],
                             maps["counit"], maps["antipode"])
        assert not descends(bumped)
        assert descends(s)

    def test_the_scan_stops_at_the_first_t_scalar(self):
        class Untouchable:
            """A nonzero entry that fails if the scan reads it."""

            def is_zero(self):
                return False

            def __getattr__(self, name):
                raise AssertionError(f"scan read .{name} past the first t-scalar")

        # The one conversion reads the unit first, then the counit, the
        # antipode, the comultiplication and the multiplication: 1 + t in the
        # unit is not a monomial, and nothing after it is read.
        s = as_structure(catalog_build("mu", 2, 1, Fiber.GENERIC).hopf)
        t = s.ring.t()
        mult = LinearMap(s.ring, s.mult.source_dim, s.mult.target_dim,
                         [{0: Untouchable()}] + [dict(col) for col in s.mult.cols[1:]])
        antipode = LinearMap(s.ring, s.rank, s.rank, [{0: Untouchable()}, {1: Untouchable()}])
        counit = LinearMap(s.ring, s.rank, 1, [{0: Untouchable()}, {}])
        comul = LinearMap(s.ring, s.rank, s.rank * s.rank, [{0: Untouchable()}, {}])
        h = HopfAlgebra(s.ring, s.labels, mult, {0: s.ring.one() + t}, comul, counit, antipode)
        assert not descends(h)

    @pytest.mark.parametrize("p", PRIMES)
    def test_function_field_against_local_ring_still_fails_base_rings_agree(self, p):
        s = as_structure(catalog_build("mu", p, 2, Fiber.GENERIC).hopf)
        lift = constant_lift(s)
        for a, b in ((s, lift), (lift, s)):
            report = exhibit_isomorphism(a, b, LinearMap.identity(a.ring, a.rank))
            assert [(c.name, c.passed, c.detail) for c in report.checks] == [
                ("base rings agree", False, f"{a.ring.tag} vs {b.ring.tag}")]
        assert {s.ring.tag, lift.ring.tag} == {f"F{p}(t)", f"F{p}[t]_(t)"}

    def test_a_map_over_another_ring_is_not_descended(self):
        # A map over F_p between structures over F_p(t) mixes scalar kinds,
        # with descent as without it.
        s = as_structure(catalog_build("mu", 2, 1, Fiber.GENERIC).hopf)
        phi = LinearMap.identity(PrimeField(2), s.rank)
        with pytest.raises(ContextMismatchError):
            exhibit_isomorphism(s, s, phi)


class TestDescentOracle:
    """verify_axioms and exhibit_isomorphism give the same report with descent
    to F_p as without it, on t-free bases over F_p(t) and F_p[t]_(t) and on
    seeded broken samples made with TestReportOracle's bump scheme (one or
    two entries of one tensor, sometimes the unit, each bump a constant or a
    constant times t; the map is the identity, itself sometimes bumped)."""

    SAMPLES_PER_BASE = 24

    @staticmethod
    def bases():
        out = []
        for p in PRIMES:
            for name in ("mu", "constant_cyclic"):
                for k in (1, 2):
                    s = as_structure(catalog_build(name, p, k, Fiber.GENERIC).hopf)
                    out += [s, constant_lift(s)]
        return out

    def reports(self):
        rng = random.Random(20261019)
        oracle = TestReportOracle()
        out = []
        for s in self.bases():
            ident = LinearMap.identity(s.ring, s.rank)
            out.append(verify_axioms(s).to_dict())
            out.append(exhibit_isomorphism(s, s, ident).to_dict())
            for _ in range(self.SAMPLES_PER_BASE):
                b = oracle.broken(rng, s)
                phi = oracle.bumped(rng, ident, s.ring) if rng.randrange(4) else ident
                out.append(verify_axioms(b).to_dict())
                out.append(exhibit_isomorphism(s, b, phi).to_dict())
        return out

    def test_descent_changes_no_report(self, monkeypatch):
        real = hopf._at_one
        descended = {True: 0, False: 0}

        def counting(sides, phi=None):
            out = real(sides, phi)
            descended[out is not None] += 1
            return out

        monkeypatch.setattr(hopf, "_at_one", counting)
        on = self.reports()
        conversion_off(monkeypatch)
        off = self.reports()
        assert on == off
        # Both sides of the switch are exercised, and the reports fail in
        # every way a report can fail after the ring and shape checks.
        assert descended[True] > 100 and descended[False] > 100
        failed = {c["name"] for rep in on for c in rep["checks"] if not c["passed"]}
        assert failed >= set(REQUIRED_CHECKS + ISO_CHECKS[3:])
        # The invertibility detail names the ring the caller passed.
        details = {c["detail"].rsplit(" over ", 1)[1] for rep in on for c in rep["checks"]
                   if c["name"] == "map is invertible" and not c["passed"]}
        assert details == {"F2(t)", "F2[t]_(t)", "F3(t)", "F3[t]_(t)"}


def residues_of(vec):
    return {i: c.residue for i, c in vec.items()}


class TestResidueKernels:
    """On a residue structure each kernel gives the residues of what it gives
    on the FpElement structure the residues came from, zeros dropped."""

    @staticmethod
    def vectors(rng, ring, dim, count, density):
        return [{i: ring.from_int(rng.randrange(1, ring.p)) for i in range(dim)
                 if rng.random() < density} for _ in range(count)]

    @pytest.mark.parametrize("p", PRIMES + [5])
    def test_kernels_agree_with_the_element_loops(self, p):
        structures = [as_structure(specialize_hopf(deformation_hopf(p), Fiber.SPECIAL)),
                      as_structure(catalog_build("constant_cyclic", p, 2).hopf)]
        if p == 3:
            structures.append(TestKernelsAgainstDenseReference.sweedler())
        for s in structures:
            d = hopf.checked_structure(s)
            assert (d.modulus, d.source, d.ring, d.labels) == (p, s, s.ring, s.labels)
            assert d.unit == residues_of(s.unit) and hopf.checked_structure(d) is d
            r = s.rank
            rng = random.Random(p)
            singles = self.vectors(rng, s.ring, r, 6, 0.5) + [{i: s.ring.one()} for i in range(r)]
            squares = list(s.comul.cols) + self.vectors(rng, s.ring, r * r, 3, 0.2)
            for u in singles:
                for v in singles[::3]:
                    assert d.vec_mult(residues_of(u), residues_of(v)) == residues_of(
                        s.vec_mult(u, v))
                    assert hopf._outer(residues_of(u), residues_of(v), r, p) == residues_of(
                        hopf._outer(u, v, r))
                assert d.antipode.apply(residues_of(u)) == residues_of(s.antipode.apply(u))
                assert d.comul.apply(residues_of(u)) == residues_of(s.comul.apply(u))
            for u in squares[::2]:
                for v in squares[1::3]:
                    assert d.square_mult(residues_of(u), residues_of(v)) == residues_of(
                        s.square_mult(u, v))
                assert tensor_apply_left(d.comul, r, residues_of(u)) == residues_of(
                    tensor_apply_left(s.comul, r, u))
                assert tensor_apply_right(d.comul, residues_of(u)) == residues_of(
                    tensor_apply_right(s.comul, u))
                assert tensor_apply_right(d.counit, residues_of(u)) == residues_of(
                    tensor_apply_right(s.counit, u))

    def test_sums_that_cancel_leave_no_entry(self):
        F = PrimeField(3)
        rng = random.Random(11)
        for u in self.vectors(rng, F, 9, 5, 0.6):
            minus = {i: -c for i, c in u.items()}
            assert hopf._sum([residues_of(u), residues_of(minus)], 3) == {}
            assert hopf._sum([residues_of(u)] * 2, 3) == residues_of(hopf._sum([u, u]))
        # The all-ones functional: 1 + 2 and 2 + 2 + 2 vanish mod 3, 2 + 2 does not.
        ones = LinearMap(F, 3, 1, [{0: F.one()}] * 3).residues()
        assert ones.apply({0: 1, 1: 2}) == {} and ones.apply({0: 2, 1: 2, 2: 2}) == {}
        assert ones.apply({0: 2, 1: 2}) == {0: 1}
        assert tensor_apply_right(ones, {0: 1, 1: 2, 3: 1}) == {1: 1}
        assert tensor_apply_left(ones, 1, {0: 1, 1: 2, 2: 1}) == {0: 1}
        # A residue map holds ints in [1, p) and keeps its shape.
        s = as_structure(specialize_hopf(deformation_hopf(3), Fiber.SPECIAL))
        m = s.comul.residues()
        assert (m.modulus, m.ring, m.source_dim, m.target_dim) == (3, s.ring, 9, 81)
        assert all(1 <= c < 3 for col in m.cols for c in col.values())
        assert s.comul.modulus is None


class TestResidueOracle:
    """verify_axioms and exhibit_isomorphism give the same report on int
    residues as on the FpElement structure they are made from, on every base
    of TestReportOracle and on the p = 5 catalog entries on both fibers, and
    on seeded broken samples made with TestReportOracle's bump scheme."""

    SAMPLES_PER_BASE = 24
    SAMPLES_PER_P5_BASE = 8

    def bases(self):
        out = [(s, self.SAMPLES_PER_BASE) for s in TestReportOracle.bases()]
        for fiber in Fiber:
            for name, k in (("alpha_p", 1), ("mu", 1), ("mu", 2),
                            ("constant_cyclic", 1), ("constant_cyclic", 2)):
                s = as_structure(catalog_build(name, 5, k, fiber).hopf)
                out.append((s, self.SAMPLES_PER_P5_BASE))
        return out

    def reports(self):
        rng = random.Random(20261020)
        oracle = TestReportOracle()
        out = []
        for s, samples in self.bases():
            ident = LinearMap.identity(s.ring, s.rank)
            out.append(verify_axioms(s).to_dict())
            out.append(exhibit_isomorphism(s, s, ident).to_dict())
            for _ in range(samples):
                b = oracle.broken(rng, s)
                phi = oracle.bumped(rng, ident, s.ring) if rng.randrange(4) else ident
                out.append(verify_axioms(b).to_dict())
                out.append(exhibit_isomorphism(s, b, phi).to_dict())
        return out

    def test_residues_change_no_report(self, monkeypatch):
        formed = counting_conversions(monkeypatch)
        on = self.reports()
        converted = [d.source for d in formed]
        # Off: the checkers run on the structures as given, with the element
        # loops.
        conversion_off(monkeypatch)
        off = self.reports()
        assert on == off
        assert len(converted) > 500
        assert {s.ring.tag for s in converted} >= {"F2", "F3", "F5", "F2(t)", "F5(t)"}
        failed = {c["name"] for rep in on for c in rep["checks"] if not c["passed"]}
        assert failed == set(REQUIRED_CHECKS + ISO_CHECKS[3:]) | {
            "comultiplication is cocommutative"}
        offenders = {c["detail"] for rep in on for c in rep["checks"] if not c["passed"]}
        assert len(offenders) > 50


class TestDescentPerCommand:
    def test_dual_descends_and_converts_each_structure_once(self, capsys, monkeypatch):
        # mu, the constant entry, the dual and the double dual: four
        # structures, each descended to F_5 once and converted once.
        descended, converted = [], []
        real = hopf._at_one

        def convert(sides, phi=None):
            descended.extend(s for s in sides if s.modulus is None)
            out = real(sides, phi)
            converted.extend(d.source for d, s in zip(out or (), sides)
                             if d is not s and d.degrees is None)
            return out

        monkeypatch.setattr(hopf, "_at_one", convert)
        argv = ["--format", "json", "dual", "--p", "5", "--fiber", "generic", "--power", "2",
                "--name", "mu"]
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "1cfdfbfd147b435044196bd4ccbc29f115d51f3896cb1017be9381d4b4a8afc7")
        assert len(descended) == 4 and len({id(s) for s in descended}) == 4
        assert [id(s) for s in converted] == [id(s) for s in descended]
        assert [s.labels[1] for s in descended] == ["z", "d1", "z*", "(z*)*"]

    def test_verify_converts_each_structure_once(self, capsys, monkeypatch):
        # The special fiber is checked twice (its axioms and its splitting)
        # and converted once; so are the catalog objects the steps compare
        # with, and the four structures converted at t = 1.
        formed = counting_conversions(monkeypatch)
        assert cli.main(["--format", "json", "verify", "--p", "3"]) == 0
        capsys.readouterr()
        converted = [d.source for d in formed]
        assert len(converted) == len({id(s) for s in converted}) == 9
        assert [d.source.labels[1] for d in formed if d.degrees is None] == [
            "y", "x", "1⊗x", "z", "d1"]


class TestResidueCopiesDoNotOutliveTheCheck:
    """verify_axioms keeps no residue copy reachable from what it checked."""

    @staticmethod
    def reachable(root):
        kinds = (HopfAlgebra, HopfPresentation, LinearMap, MonomialQuotientAlgebra,
                 AlgebraElement, dict, list, tuple)
        seen, stack, out = set(), [root], []
        while stack:
            obj = stack.pop()
            if id(obj) in seen:
                continue
            seen.add(id(obj))
            out.append(obj)
            if isinstance(obj, kinds):
                stack.extend(gc.get_referents(obj))
        return out

    @pytest.mark.parametrize("which", ["special-fiber", "generic-mu", "generic-constant",
                                       "special-constant", "deformation"])
    def test_no_residue_copy_is_reachable(self, which):
        if which == "special-fiber":
            h = specialize_hopf(deformation_hopf(3), Fiber.SPECIAL)
        elif which == "deformation":
            h = deformation_hopf(2)
        else:
            fiber = Fiber.SPECIAL if which.startswith("special") else Fiber.GENERIC
            name = "mu" if which.endswith("mu") else "constant_cyclic"
            h = catalog_build(name, 3, 2, fiber).hopf
        s = as_structure(h)
        before = self.reachable(h)
        assert verify_axioms(h).ok
        after = self.reachable(h)
        assert len(after) == len(before)
        for obj in after:
            if isinstance(obj, HopfAlgebra):
                assert obj.source is None and obj.modulus is None
            if isinstance(obj, LinearMap):
                assert obj.modulus is None
        # The walk reaches the fields of the structure itself.
        ids = {id(obj) for obj in after}
        assert {id(s), id(s.mult), id(s.unit), id(s.comul), id(s.antipode)} <= ids


class TestOneConversion:
    """One conversion (_at_one) takes structures over F_p, t-free ones and
    graded ones to int residues."""

    NAMES = [("alpha_p", 1), ("mu", 1), ("mu", 2), ("constant_cyclic", 1), ("constant_cyclic", 2)]

    @classmethod
    def t_free(cls, p):
        """(structure, its special-fiber entry): each catalog entry on the
        generic fiber, the same lifted to F_p[t]_(t), and the transposes of
        both, with the entry or its transpose."""
        out = []
        for name, k in cls.NAMES:
            s = as_structure(catalog_build(name, p, k, Fiber.GENERIC).hopf)
            special = as_structure(catalog_build(name, p, k, Fiber.SPECIAL).hopf)
            for g in (s, constant_lift(s)):
                out += [(g, special), (hopf._transpose(g), hopf._transpose(special))]
        return out

    @pytest.mark.parametrize("p", PRIMES + [5])
    def test_t_free_structures_read_as_their_special_entries(self, p):
        # alpha_p, mu and constant_cyclic at p = 2, 3 and 5 with their
        # transposes (30 structures), and their lifts to F_p[t]_(t).
        structures = self.t_free(p)
        assert len(structures) == 4 * len(self.NAMES)
        for s, special in structures:
            d = hopf.checked_structure(s)
            assert (d.modulus, d.ring, d.source, d.degrees, d.labels) == (
                p, PrimeField(p), s, None, s.labels)
            assert (d.mult, d.comul, d.counit, d.antipode) == (
                special.mult.residues(), special.comul.residues(), special.counit.residues(),
                special.antipode.residues())
            assert d.unit == residues_of(special.unit)
            assert hopf.grading(s) is None

    def test_a_t_free_read_forms_no_constraint(self, capsys, monkeypatch):
        structures = self.t_free(5)
        calls = []
        real_terms, real_settle = hopf._net_terms, hopf._Grading._settle

        def net_terms(target, source):
            calls.append("_net_terms")
            return real_terms(target, source)

        def settle(g, terms, k, waiting):
            calls.append("_settle")
            return real_settle(g, terms, k, waiting)

        monkeypatch.setattr(hopf, "_net_terms", net_terms)
        monkeypatch.setattr(hopf._Grading, "_settle", settle)
        formed = counting_conversions(monkeypatch)
        for s, _ in structures:
            assert hopf.checked_structure(s).degrees is None
        # The dual command converts four t-free structures, two of them in
        # isomorphism checks against a side already on residues.
        argv = ["--format", "json", "dual", "--p", "5", "--fiber", "generic", "--power", "2",
                "--name", "mu"]
        assert cli.main(argv) == 0
        capsys.readouterr()
        assert len(formed) == 4 * len(self.NAMES) + 4
        assert calls == []
        # Negative control: a graded structure records its constraints.
        assert hopf.checked_structure(deformation_hopf(3)).degrees is not None
        assert {"_net_terms", "_settle"} <= set(calls)


def exponent_degrees(h):
    """d(x^a y^b) = a*(p + 1) + b on the monomial basis of a presentation,
    read from its exponents (x killed: d(y^b) = b)."""
    A = h.algebra
    weights = {"x": A.ring.p + 1, "y": 1}
    return [sum(weights[g] * e for g, e in zip(A.gens, exps)) for exps in A.iter_basis()]


class TestGrading:
    """grading reads the degrees off the structure tensors; the checks at
    t = 1 take exactly the structures it grades with some constant off
    degree 0."""

    @pytest.mark.parametrize("p", PRIMES + [5])
    def test_degrees_of_the_deformation_its_generic_fiber_dual_and_quotient(self, p):
        h = deformation_hopf(p)
        d = exponent_degrees(h)
        assert d[:2] == [0, 1] and d[p] == p + 1
        ge = specialize_hopf(h, Fiber.GENERIC)
        assert hopf.grading(h) == d and hopf.grading(ge) == d
        assert hopf.grading(cartier_dual(ge)) == [-k for k in d]
        q = hopf_quotient(h, [h.algebra.gen(0)])
        assert hopf.grading(q) == exponent_degrees(q) == list(range(p))

    def test_degrees_do_not_come_from_the_labels(self):
        s = as_structure(deformation_hopf(3))
        renamed = HopfAlgebra(s.ring, tuple(f"b{i}" for i in range(s.rank)), s.mult, s.unit,
                              s.comul, s.counit, s.antipode)
        assert hopf.grading(renamed) == hopf.grading(s)

    @pytest.mark.parametrize("p", PRIMES)
    def test_none_where_no_grading_certifies_a_check_at_t_equal_1(self, p):
        assert hopf.grading(deformation_hopf(p, "corrupt-antipode")) is None
        # t-free structures, over every ring, and the special fiber.
        for fiber in Fiber:
            for name, k in (("alpha_p", 1), ("mu", 2), ("constant_cyclic", 2)):
                s = as_structure(catalog_build(name, p, k, fiber).hopf)
                assert hopf.grading(s) is None
                if fiber is Fiber.GENERIC:
                    assert hopf.grading(constant_lift(s)) is None
        assert hopf.grading(specialize_hopf(deformation_hopf(p), Fiber.SPECIAL)) is None
        # One constant c + c'*t, and one monomial off its degree.
        s = as_structure(deformation_hopf(p))
        one, t = s.ring.one(), s.ring.t()
        for scalar in (one + t, t * t):
            cols = [dict(col) for col in s.antipode.cols]
            cols[1][1] = cols[1][1] + scalar
            antipode = LinearMap(s.ring, s.rank, s.rank, cols)
            bumped = HopfAlgebra(s.ring, s.labels, s.mult, s.unit, s.comul, s.counit, antipode)
            assert hopf.grading(bumped) is None
            assert hopf.checked_structure(bumped).modulus is None

    def test_the_attempt_stops_at_the_first_conflicting_constant(self):
        class Untouchable:
            """A nonzero entry that fails if the scan reads it."""

            def is_zero(self):
                return False

            def __getattr__(self, name):
                raise AssertionError(f"scan read .{name} past the first conflict")

        s = as_structure(deformation_hopf(2))
        t = s.ring.t()
        stray = [{0: Untouchable()} for _ in range(s.rank * s.rank)]
        mult = LinearMap(s.ring, s.rank * s.rank, s.rank, stray)
        comul = LinearMap(s.ring, s.rank, s.rank * s.rank, stray[:s.rank])
        for first in (s.ring.one() + t, t):
            antipode = LinearMap(s.ring, s.rank, s.rank,
                                 [{0: first}] + [{0: Untouchable()}] * (s.rank - 1))
            h = HopfAlgebra(s.ring, s.labels, mult, s.unit, comul, s.counit, antipode)
            assert hopf.grading(h) is None

    @pytest.mark.parametrize("p", PRIMES)
    def test_the_residue_structure_at_t_equal_1(self, p):
        h = deformation_hopf(p)
        s = as_structure(h)
        d = hopf.checked_structure(h)
        assert (d.modulus, d.ring, d.source, d.labels) == (p, PrimeField(p), s, s.labels)
        assert d.degrees == tuple(hopf.grading(s))
        # Each constant c*t^k becomes c.
        for m, dm in ((s.mult, d.mult), (s.comul, d.comul), (s.counit, d.counit),
                      (s.antipode, d.antipode)):
            assert dm.modulus == p
            assert dm.cols == tuple({i: c.num.coeffs[-1] for i, c in col.items()}
                                    for col in m.cols)
        assert d.unit == {0: 1}
        assert hopf.checked_structure(d) is d
        # t-free residue structures carry no degrees.
        assert hopf.checked_structure(catalog_build("mu", p, 2, Fiber.GENERIC).hopf).degrees is None


def graded_path_off(monkeypatch):
    """The checks at t = 1 off: the one conversion is off."""
    conversion_off(monkeypatch)


def counting_formed(monkeypatch):
    """The sources of every residue structure formed at t = 1, in order."""
    real = hopf._at_one
    formed = []

    def counting(sides, phi=None):
        out = real(sides, phi)
        formed.extend(s for d, s in zip(out or (), sides)
                      if d is not s and d.degrees is not None)
        return out

    monkeypatch.setattr(hopf, "_at_one", counting)
    return formed


class TestGradedOracle:
    """Reports with the checks at t = 1 equal the reports of the ring
    checks: on the pipeline's structures, isomorphisms and commands at p = 2
    and 3, and on seeded broken samples of the deformation whose bumps keep
    or break homogeneity."""

    @staticmethod
    def pipeline_reports(p):
        h = deformation_hopf(p)
        ge = specialize_hopf(h, Fiber.GENERIC)
        mu, phi = iso_mu_to_generic(ge)
        const, dual, psi = iso_constant_to_dual_generic(ge)
        q = hopf_quotient(h, [h.algebra.gen(0)])
        reports = [verify_axioms(x) for x in (h, ge, dual, q)]
        reports += [exhibit_isomorphism(mu, ge, phi), exhibit_isomorphism(const, dual, psi),
                    exhibit_isomorphism(h, h, LinearMap.identity(h.ring, h.rank)),
                    double_dual_report(hopf.checked_structure(ge))]
        return [r.to_dict() for r in reports]

    @staticmethod
    def commands(capsys, p):
        out = []
        for argv in (["verify", "--p", str(p)], ["quotient", "--p", str(p), "--kill", "x"],
                     *(["verify", "--p", str(p), "--mutate", m] for m in sorted(MUTATIONS))):
            code = cli.main(["--format", "json"] + argv)
            out.append((code, capsys.readouterr().out))
        return out

    @pytest.mark.parametrize("p", PRIMES)
    def test_pipeline_reports_and_commands_are_unchanged(self, capsys, monkeypatch, p):
        formed = counting_formed(monkeypatch)
        on = self.pipeline_reports(p), self.commands(capsys, p)
        assert len(formed) >= 10
        assert all(rep["passed"] for rep in on[0])
        assert [code for code, _ in on[1]] == [0, 0, 1, 1, 1]
        graded_path_off(monkeypatch)
        formed.clear()
        off = self.pipeline_reports(p), self.commands(capsys, p)
        assert formed == []
        assert on == off

    @pytest.mark.parametrize("p", PRIMES)
    def test_a_map_or_side_off_the_grading_takes_the_ring_check(self, monkeypatch, p):
        # phi scales y by t: invertible over F_p(t) and the identity at t = 1,
        # but not of degree 0.  lift is the generic fiber at t = 1 as a t-free
        # structure over F_p(t): the identity from it agrees at t = 1 only.
        ge = specialize_hopf(deformation_hopf(p), Fiber.GENERIC)
        checked = hopf.checked_structure(ge)
        F = ge.ring
        cols = [{i: F.one()} for i in range(ge.rank)]
        cols[1] = {1: F.t()}
        scaled = LinearMap(F, ge.rank, ge.rank, cols)

        def lifted(m):
            return LinearMap(F, m.source_dim, m.target_dim,
                             [{i: F.from_int(c) for i, c in col.items()} for col in m.cols])

        lift = HopfAlgebra(F, checked.labels, lifted(checked.mult), {0: F.one()},
                           lifted(checked.comul), lifted(checked.counit),
                           lifted(checked.antipode))
        ident = LinearMap.identity(F, ge.rank)

        def reports():
            return [exhibit_isomorphism(a, b, phi).to_dict()
                    for a, b, phi in ((ge, ge, scaled), (checked, checked, scaled),
                                      (lift, ge, ident), (lift, checked, ident),
                                      (checked, lift, ident))]

        formed = counting_formed(monkeypatch)
        on = reports()
        assert formed == []
        graded_path_off(monkeypatch)
        assert reports() == on
        assert [rep["passed"] for rep in on] == [False] * 5
        assert verify_axioms(lift).ok

    @staticmethod
    def index_degrees(d, r):
        """(column degrees, row degrees) of each tensor under the grading d."""
        pairs = [d[i] + d[j] for i in range(r) for j in range(r)]
        return {"mult": (pairs, d), "comul": (d, pairs), "counit": (d, [0]),
                "antipode": (d, d), "unit": ([0], d)}

    @staticmethod
    def bump(rng, cols, col_deg, row_deg, ring, homogeneous):
        """cols with one entry changed.  Homogeneous bumps scale an existing
        constant by a in F_p, a != 1 (a = 0 drops it), or fill an empty
        place with c*t^k at its own degree; the others add c*t^k off the
        degree of an empty place, or add c*t^(k+1) to an existing c*t^k."""
        p, t = ring.p, ring.t()
        places = [(j, i) for j, col in enumerate(cols) for i in col]
        if homogeneous:
            empty = [(j, i) for j in range(len(cols)) for i in range(len(row_deg))
                     if i not in cols[j] and row_deg[i] >= col_deg[j]]
            if places and (not empty or rng.randrange(2)):
                j, i = rng.choice(places)
                a = rng.choice([0] + list(range(2, p)))
                cols[j][i] = cols[j][i] * ring.from_int(a)
            else:
                j, i = rng.choice(empty)
                cols[j][i] = ring.from_int(rng.randrange(1, p)) * ring.t(row_deg[i] - col_deg[j])
        elif places and rng.randrange(2):
            j, i = rng.choice(places)
            cols[j][i] = cols[j][i] + cols[j][i] * t
        else:
            j = rng.randrange(len(cols))
            i = rng.randrange(len(row_deg))
            k = max(row_deg[i] - col_deg[j], 0) + rng.randrange(1, 3)
            cols[j][i] = cols[j].get(i, ring.zero()) + ring.from_int(rng.randrange(1, p)) * ring.t(k)
        return [{i: c for i, c in col.items() if not c.is_zero()} for col in cols]

    def broken(self, rng, s, d, homogeneous):
        degrees = self.index_degrees(d, s.rank)
        maps = {"mult": s.mult, "comul": s.comul, "counit": s.counit, "antipode": s.antipode}
        which = rng.choice(sorted(degrees))
        if which == "unit":
            unit = self.bump(rng, [dict(s.unit)], *degrees["unit"], s.ring, homogeneous)[0]
        else:
            unit = s.unit
            m = maps[which]
            cols = self.bump(rng, [dict(col) for col in m.cols], *degrees[which], s.ring,
                             homogeneous)
            maps[which] = LinearMap(s.ring, m.source_dim, m.target_dim, cols)
        return HopfAlgebra(s.ring, s.labels, maps["mult"], unit, maps["comul"],
                           maps["counit"], maps["antipode"])

    SAMPLES = {2: 32, 3: 16}

    def reports(self, p):
        rng = random.Random(20261024 + p)
        s = as_structure(deformation_hopf(p))
        d = exponent_degrees(deformation_hopf(p))
        ident = LinearMap.identity(s.ring, s.rank)
        out = []
        for n in range(self.SAMPLES[p]):
            b = self.broken(rng, s, d, homogeneous=n % 2 == 0)
            phi = ident
            if rng.randrange(3):
                phi = LinearMap(s.ring, s.rank, s.rank,
                                self.bump(rng, [dict(col) for col in ident.cols], d, d, s.ring,
                                          homogeneous=rng.randrange(3) > 0))
            out.append(verify_axioms(b).to_dict())
            out.append(exhibit_isomorphism(s, b, phi).to_dict())
        return out

    @pytest.mark.parametrize("p", PRIMES)
    def test_broken_samples_give_the_ring_reports(self, monkeypatch, p):
        formed = counting_formed(monkeypatch)
        on = self.reports(p)
        # Most homogeneous samples take the t = 1 checks.
        assert len(formed) >= self.SAMPLES[p] // 2
        graded_path_off(monkeypatch)
        formed.clear()
        off = self.reports(p)
        assert formed == []
        assert on == off
        failed = {c["name"] for rep in on for c in rep["checks"] if not c["passed"]}
        assert failed >= set(REQUIRED_CHECKS) | {"map is invertible", "unit preserved",
                                                 "multiplication preserved"}
        offenders = {c["detail"] for rep in on for c in rep["checks"] if not c["passed"]}
        assert len(offenders) > 10


class TestGradedPerCommand:
    def test_verify_forms_each_graded_structure_once(self, capsys, monkeypatch):
        # The deformation, its generic fiber (checked twice: its axioms and
        # the multiplicative identification), the generic fiber's dual and
        # the quotient: four structures, each formed at t = 1 once.
        formed = counting_formed(monkeypatch)
        assert cli.main(["--format", "json", "verify", "--p", "3"]) == 0
        capsys.readouterr()
        assert len(formed) == len({id(s) for s in formed}) == 4
        assert [(s.ring.tag, s.labels[1]) for s in formed] == [
            ("F3[t]_(t)", "y"), ("F3(t)", "y"), ("F3(t)", "y*"), ("F3[t]_(t)", "y")]

    def test_axiom_checks_make_no_fraction_multiplication(self, capsys, monkeypatch):
        # Fraction multiplications inside each verify_axioms and
        # checked_structure call of the verify command, leaving out the
        # build of a presentation's tensors (HopfPresentation.structure).
        from hopfdeform import rings
        state = {"on": 0, "paused": 0}
        counts = {"verify_axioms": [], "checked_structure": []}
        real_mul = rings._PolyFraction.__mul__
        real_structure = HopfPresentation.structure

        def mul(a, b):
            if state["on"] and not state["paused"]:
                state["count"] += 1
            return real_mul(a, b)

        def structure(h):
            state["paused"] += 1
            try:
                return real_structure(h)
            finally:
                state["paused"] -= 1

        def counted(name, real):
            def wrapper(h):
                state["on"], state["count"] = 1, 0
                try:
                    return real(h)
                finally:
                    state["on"] = 0
                    counts[name].append(state["count"])
            return wrapper

        monkeypatch.setattr(rings._PolyFraction, "__mul__", mul)
        monkeypatch.setattr(HopfPresentation, "structure", structure)
        for name in counts:
            monkeypatch.setattr(cli, name, counted(name, getattr(cli, name)))
        argv = ["--format", "json", "verify", "--p", "3"]
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        # verify_axioms: base ring, special fiber, generic fiber, quotient;
        # checked_structure: special fiber, generic fiber.
        assert counts == {"verify_axioms": [0, 0, 0, 0], "checked_structure": [0, 0]}
        # Negative control: over the rings the same checks multiply fractions.
        graded_path_off(monkeypatch)
        for name in counts:
            counts[name].clear()
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == out
        base, _, generic, quotient = counts["verify_axioms"]
        assert min(base, generic, quotient) > 100


def functions_on_s3(antipode_shift=0):
    """Functions on the symmetric group S_3 over F_3, on the point-idempotent
    basis: commutative and not cocommutative.  antipode_shift moves the
    antipode image of the last point to another point (0 keeps it)."""
    F = PrimeField(3)
    one = F.one()
    group = sorted(itertools.permutations(range(3)))
    index = {g: n for n, g in enumerate(group)}
    r = len(group)

    def compose(a, b):
        return tuple(a[b[i]] for i in range(3))

    def inverse(g):
        return tuple(sorted(range(3), key=lambda i: g[i]))

    mult = LinearMap(F, r * r, r, [{a: one} if a == b else {} for a in range(r) for b in range(r)])
    comul = LinearMap(F, r, r * r, [
        {index[a] * r + index[b]: one for a in group for b in group if compose(a, b) == g}
        for g in group])
    counit = LinearMap(F, r, 1, [{0: one} if g == group[0] else {} for g in group])
    images = [index[inverse(g)] for g in group]
    images[-1] = (images[-1] + antipode_shift) % r
    antipode = LinearMap(F, r, r, [{i: one} for i in images])
    labels = tuple("g" + "".join(map(str, g)) for g in group)
    return HopfAlgebra(F, labels, mult, {n: one for n in range(r)}, comul, counit, antipode)


def nonzeros(m):
    return sum(len(col) for col in m.cols)


def is_cocommutative(s):
    return not any(hopf._is_flip_asymmetric(col, s.rank) for col in s.comul.cols)


def side_choice_off(monkeypatch):
    monkeypatch.setattr(hopf, "_sparser_transpose", lambda s: None)


def counting_transposed(monkeypatch, sources=None):
    """The transposes verify_axioms takes its self-transposed checks to, in
    order, and in sources, when given, the structures they are taken of; the
    lists keep them alive, so their ids stay theirs."""
    real = hopf._sparser_transpose
    taken = []

    def counting(s):
        t = real(s)
        if t is not None:
            taken.append(t)
            if sources is not None:
                sources.append(s)
        return t

    monkeypatch.setattr(hopf, "_sparser_transpose", counting)
    return taken


class TestSparserSideOracle:
    """Reports with the bialgebra and antipode laws decided on the sparser
    side equal the reports of the scans on the checked structure itself,
    offenders included: on the pipeline's structures, the catalog, the
    mutations, seeded broken samples, and functions on S_3, which is not
    cocommutative and so stays on its own side."""

    @staticmethod
    def pipeline_reports(p):
        h = deformation_hopf(p)
        ge = specialize_hopf(h, Fiber.GENERIC)
        structures = [h, specialize_hopf(h, Fiber.SPECIAL), ge, cartier_dual(ge),
                      hopf_quotient(h, [h.algebra.gen(0)])]
        structures += [catalog_build(name, p, k, fiber).hopf
                       for name, k in [("alpha_p", 1), ("mu", 1), ("mu", 2),
                                       ("constant_cyclic", 1), ("constant_cyclic", 2)]
                       for fiber in Fiber]
        return [verify_axioms(x).to_dict() for x in structures]

    @staticmethod
    def commands(capsys, p):
        out = []
        for argv in (["verify", "--p", str(p)],
                     *(["verify", "--p", str(p), "--mutate", m] for m in sorted(MUTATIONS))):
            code = cli.main(["--format", "json"] + argv)
            out.append((code, capsys.readouterr().out))
        return out

    @pytest.mark.parametrize("p", PRIMES)
    def test_pipeline_catalog_and_mutations_are_unchanged(self, capsys, monkeypatch, p):
        sources = []
        taken = counting_transposed(monkeypatch, sources)
        on = self.pipeline_reports(p), self.commands(capsys, p)
        # Presentations decide both laws on their generators, so only the
        # constant schemes are transposed: each of the four here twice
        # (catalog_build checks it, then the report), and the generic one of
        # the unmutated command's dual step.
        assert len(taken) == 9
        assert all(hopf._generators(x) is None and x.labels[0] == "d0" for x in sources)
        assert all(rep["passed"] for rep in on[0])
        assert [code for code, _ in on[1]] == [0, 1, 1, 1]
        side_choice_off(monkeypatch)
        taken.clear()
        off = self.pipeline_reports(p), self.commands(capsys, p)
        assert taken == []
        assert on == off

    @staticmethod
    def bump(rng, s, which):
        """s with one entry of the comultiplication, multiplication or
        antipode changed by a nonzero constant (times t^0, t or t^2 over a
        ring with t).  Half of the comultiplication bumps sit on a diagonal
        place e_i (x) e_i, which keeps a cocommutative structure so."""
        ring, r = s.ring, s.rank
        c = ring.from_int(rng.randrange(1, ring.p))
        if not isinstance(ring, PrimeField):
            c = c * ring.t(rng.randrange(3))
        maps = {"comul": s.comul, "mult": s.mult, "antipode": s.antipode}
        m = maps[which]
        cols = [dict(col) for col in m.cols]
        j = rng.randrange(m.source_dim)
        if which == "comul" and rng.randrange(2):
            i = rng.randrange(r) * (r + 1)
        elif cols[j] and rng.randrange(2):
            i = rng.choice(sorted(cols[j]))
        else:
            i = rng.randrange(m.target_dim)
        cols[j][i] = cols[j].get(i, ring.zero()) + c
        maps[which] = LinearMap(ring, m.source_dim, m.target_dim, cols)
        return HopfAlgebra(ring, s.labels, maps["mult"], s.unit, maps["comul"], s.counit,
                           maps["antipode"])

    @staticmethod
    def bases():
        return [as_structure(deformation_hopf(2)), as_structure(deformation_hopf(3)),
                as_structure(catalog_build("constant_cyclic", 3, 2, Fiber.SPECIAL).hopf),
                as_structure(catalog_build("constant_cyclic", 2, 2, Fiber.GENERIC).hopf),
                functions_on_s3()]

    SAMPLES_PER_BASE = 30

    def reports(self):
        rng = random.Random(20261025)
        out = []
        for s in self.bases():
            out.append(verify_axioms(s).to_dict())
            for n in range(self.SAMPLES_PER_BASE):
                out.append(verify_axioms(self.bump(rng, s, ("comul", "mult", "antipode")[n % 3]))
                           .to_dict())
        return out

    def test_broken_samples_give_the_same_reports(self, monkeypatch):
        taken = counting_transposed(monkeypatch)
        on = self.reports()
        assert len(taken) > self.SAMPLES_PER_BASE
        side_choice_off(monkeypatch)
        off = self.reports()
        assert on == off
        # The two self-transposed laws and the cocommutativity the side
        # choice reads each fail on some sample, with many offenders.
        failed = {c["name"] for rep in on for c in rep["checks"] if not c["passed"]}
        assert failed >= {"comultiplication is an algebra map", "antipode identities hold",
                          "comultiplication is cocommutative"}
        offenders = {c["detail"] for rep in on for c in rep["checks"]
                     if not c["passed"] and c["name"] in ("comultiplication is an algebra map",
                                                          "antipode identities hold")}
        assert len(offenders) > 10

    def test_functions_on_s3_stay_on_their_own_side(self, monkeypatch):
        # Commutative and not cocommutative: the transpose (the group
        # algebra) is not commutative, so its pair scan would not be
        # complete.  Its comultiplication is the denser tensor all the same.
        receivers = []
        real = HopfAlgebra.square_mult
        monkeypatch.setattr(HopfAlgebra, "square_mult",
                            lambda s, u, v: receivers.append(s) or real(s, u, v))
        for shift in (0, 1):
            s = hopf.checked_structure(functions_on_s3(shift))
            assert nonzeros(s.comul) > nonzeros(s.mult) and not is_cocommutative(s)
            receivers.clear()
            report = verify_axioms(s)
            assert receivers and all(x is s for x in receivers)
            assert report.ok == (shift == 0)
            assert [(c.name, c.detail) for c in report.failures()] == (
                [("antipode identities hold", "g012")] if shift else []) + [
                ("comultiplication is cocommutative", "g021")]

    def test_a_structure_that_is_not_cocommutative_is_not_transposed(self):
        # Over F_3, b^2 = b and Delta(b) = 1(x)1 + 2*1(x)b + b(x)1 + b(x)b:
        # commutative, not cocommutative, and not a bialgebra at (b, b).  Its
        # transpose is not commutative, and the pair scan i <= j on the
        # transpose misses the failure, though that side is the sparser one.
        F = PrimeField(3)
        one, two = F.one(), F.from_int(2)
        s = HopfAlgebra(F, ("1", "b"), LinearMap(F, 4, 2, [{0: one}, {1: one}, {1: one}, {1: one}]),
                        {0: one}, LinearMap(F, 2, 4, [{0: one}, {0: one, 1: two, 2: one, 3: one}]),
                        LinearMap(F, 2, 1, [{0: one}, {}]), LinearMap.identity(F, 2))
        checks = {c.name: c for c in verify_axioms(s).checks}
        assert checks["multiplication is commutative"].passed
        assert checks["comultiplication is cocommutative"].detail == "b"
        assert checks["comultiplication is an algebra map"].detail == "b, b"
        checked = hopf.checked_structure(s)
        t = hopf._sparser_transpose(checked)
        assert t is not None and hopf._comul_multiplicative_at(t) is None
        assert hopf._comul_multiplicative_at(checked) == "b, b"


class TestSparserSideWork:
    """The self-transposed scans multiply on the sparser side, and the
    transpose they run on does not outlive verify_axioms."""

    @pytest.mark.parametrize("argv", [
        ["verify", "--p", "5", "--slow"],
        ["dual", "--p", "5", "--fiber", "generic", "--power", "2", "--name", "constant_cyclic"],
    ])
    def test_no_product_on_the_denser_side(self, capsys, monkeypatch, argv):
        calls = {}
        receivers = {}
        real = HopfAlgebra.square_mult

        def counting(s, u, v):
            calls[id(s)] = calls.get(id(s), 0) + 1
            receivers[id(s)] = s
            return real(s, u, v)

        monkeypatch.setattr(HopfAlgebra, "square_mult", counting)
        assert cli.main(["--format", "json"] + argv) == 0
        capsys.readouterr()
        assert sum(calls.values()) > 0
        denser = {k: s for k, s in receivers.items()
                  if is_cocommutative(s) and nonzeros(s.comul) > nonzeros(s.mult)}
        # A denser receiver is a presentation, multiplying on the pairs
        # (g, e_j) of its generators: in verify, the deformation, its generic
        # fiber and the quotient by x.  There is no untagged one.
        assert all(calls[k] <= len(hopf._generators(s)) * s.rank for k, s in denser.items())
        assert [(s.labels[1], s.rank, calls[k]) for k, s in denser.items()] == (
            [("y", 25, 50), ("y", 25, 50), ("y", 5, 5)] if argv[0] == "verify" else [])

    def test_transpose_keeps_int_residues(self):
        # Over F_3 the transpose of the residue structure holds the residues
        # of the transpose over F_3.
        s = as_structure(catalog_build("constant_cyclic", 3, 2, Fiber.SPECIAL).hopf)
        checked = hopf.checked_structure(s)
        t, over_f3 = hopf._transpose(checked), hopf._transpose(s)
        assert (t.modulus, t.source, t.degrees, t.labels) == (3, None, None, over_f3.labels)
        for a, b in ((t.mult, over_f3.mult), (t.comul, over_f3.comul),
                     (t.counit, over_f3.counit), (t.antipode, over_f3.antipode)):
            assert a.modulus == 3 and a.cols == tuple(residues_of(col) for col in b.cols)
        assert t.unit == residues_of(over_f3.unit)
        # Transposing twice gives the residue structure back, at t = 1 too.
        for c in (checked, hopf.checked_structure(deformation_hopf(3))):
            back = hopf._transpose(hopf._transpose(c))
            assert back.modulus == 3
            assert (back.mult.cols, back.unit, back.comul.cols, back.counit.cols,
                    back.antipode.cols) == (c.mult.cols, c.unit, c.comul.cols, c.counit.cols,
                                            c.antipode.cols)

    @pytest.mark.parametrize("which", ["deformation", "generic-constant", "corrupt-antipode"])
    def test_no_transpose_is_reachable(self, monkeypatch, which):
        if which == "deformation":
            h = deformation_hopf(3)
        elif which == "corrupt-antipode":
            h = deformation_hopf(3, mutation="corrupt-antipode")
        else:
            h = catalog_build("constant_cyclic", 3, 2, Fiber.GENERIC).hopf
        checked = hopf.checked_structure(h)
        reach = TestResidueCopiesDoNotOutliveTheCheck.reachable
        before = {id(obj) for root in (h, checked) for obj in reach(root)}
        taken = counting_transposed(monkeypatch)
        report = verify_axioms(checked)
        assert report.ok == (which != "corrupt-antipode")
        # A presentation takes no transpose, the constant cyclic scheme one.
        assert len(taken) == (which == "generic-constant")
        ids = {id(obj) for root in (h, checked) for obj in reach(root)}
        assert ids == before
        for t in taken:
            # The constant scheme is t-free: its transpose holds residues.
            assert t.modulus == 3
            transposed = {id(obj) for obj in reach(t)} - {id(obj) for obj in reach(checked)}
            assert id(t) in transposed and not ids & transposed


def generators_off(monkeypatch):
    """Turn the generator tag off: every check scans the basis."""
    monkeypatch.setattr(hopf, "_generators", lambda s: None)


def counting_tagged(monkeypatch):
    """The structures whose generator tag a check read, in order."""
    real = hopf._generators
    tagged = []

    def counting(s):
        gens = real(s)
        if gens is not None:
            tagged.append(s)
        return gens

    monkeypatch.setattr(hopf, "_generators", counting)
    return tagged


def pipeline_presentations(p):
    """The deformation, both fibers, the quotient by x, and mu and alpha_p on
    both fibers."""
    h = deformation_hopf(p)
    out = [h, specialize_hopf(h, Fiber.SPECIAL), specialize_hopf(h, Fiber.GENERIC),
           hopf_quotient(h, [h.algebra.gen(0)])]
    out += [catalog_build(name, p, k, fiber).hopf for name, k in (("mu", 1), ("mu", 2),
                                                                 ("alpha_p", 1))
            for fiber in Fiber]
    return out


def broken_presentations(p):
    """Presentations on F_p[x,y]/(x^p, y^p) whose generator images keep the
    relations (hopf_presentation accepts them) and break one law: name ->
    (presentation, the check of that law)."""
    F = PrimeField(p)
    A = MonomialQuotientAlgebra(F, ("x", "y"), (p, p), [{}, {}])
    sq = A.tensor(A)
    one, x, y = A.one(), A.gen(0), A.gen(1)

    def primitive(g):
        return sq.pure_tensor(one, g) + sq.pure_tensor(g, one)

    zeros = [F.zero(), F.zero()]
    return {
        # 1(x)x + x(x)1 + y(x)x: (Delta (x) id)Delta(x) misses y(x)y(x)x.
        "coassociativity": (
            hopf_presentation(A, [primitive(x) + sq.pure_tensor(y, x), primitive(y)], zeros,
                              [-x, -y]),
            "comultiplication is coassociative"),
        # (id (x) eps)Delta(x) = x + y.
        "counit": (
            hopf_presentation(A, [primitive(x) + sq.pure_tensor(y, one), primitive(y)], zeros,
                              [-x, -y]),
            "counit identities hold"),
        # S(y) = -y + x*y, an algebra map that is not the antipode.
        "antipode": (
            hopf_presentation(A, [primitive(x), primitive(y)], zeros, [-x, -y + x * y]),
            "antipode identities hold"),
    }


def wrong_splittings(p):
    """(special fiber, alpha_p x alpha_p, phi) for maps that are not the
    splitting: an algebra map x -> x + x*y that is not a coalgebra map, the
    splitting with 1 added to the image of x*y (invertible, not an algebra
    map), and the generators swapped (a Hopf isomorphism, as a positive
    control)."""
    sp = specialize_hopf(deformation_hopf(p), Fiber.SPECIAL)
    target, phi = iso_special_to_alpha_product(sp)
    B = target.algebra
    X, Y = B.gen(0), B.gen(1)
    cols = [dict(col) for col in phi.cols]
    k = sp.algebra.index((1, 1))
    cols[k][0] = B.ring.one()
    return [(sp, target, algebra_hom(sp.algebra, B, [X + X * Y, Y])),
            (sp, target, LinearMap(B.ring, phi.source_dim, phi.target_dim, cols)),
            (sp, target, algebra_hom(sp.algebra, B, [Y, X]))]


class TestGeneratorOracle:
    """On presentations the identities of algebra maps are decided on the
    generators; with the generator tag off every check scans the basis.
    Both give the same reports and the same first offenders: on the
    pipeline's presentations and isomorphisms, on the commands, and on
    presentations and maps that break one law."""

    @staticmethod
    def reports(p):
        out = [verify_axioms(h).to_dict() for h in pipeline_presentations(p)]
        h = deformation_hopf(p)
        sp, ge = specialize_hopf(h, Fiber.SPECIAL), specialize_hopf(h, Fiber.GENERIC)
        target, phi = iso_special_to_alpha_product(sp)
        mu, psi = iso_mu_to_generic(ge)
        out += [exhibit_isomorphism(sp, target, phi).to_dict(),
                exhibit_isomorphism(mu, ge, psi).to_dict(),
                exhibit_isomorphism(hopf.checked_structure(sp), target, phi).to_dict(),
                exhibit_isomorphism(mu, hopf.checked_structure(ge), psi).to_dict()]
        return out

    @staticmethod
    def commands(capsys, p):
        argvs = [["verify", "--p", str(p)]]
        argvs += [["verify", "--p", str(p), "--mutate", m] for m in sorted(MUTATIONS)]
        argvs += [["quotient", "--p", str(p), "--kill", kill] for kill in ("x", "y", "x,y")]
        argvs += [["dual", "--p", str(p), "--fiber", fiber, "--power", str(k), "--name", name]
                  for fiber in ("special", "generic")
                  for name, k in (("alpha_p", 1), ("mu", 1), ("mu", 2), ("constant_cyclic", 2))]
        out = []
        for argv in argvs:
            for fmt in ("json", "pretty"):
                code = cli.main(["--format", fmt] + argv)
                text = capsys.readouterr().out
                if fmt == "pretty" and argv[0] == "verify":
                    # Pretty verify prints each step's wall time.
                    text = "\n".join(line.split("  (")[0] for line in text.splitlines())
                out.append((code, text))
        return out

    @pytest.mark.parametrize("p", PRIMES)
    def test_pipeline_reports_and_commands_are_unchanged(self, capsys, monkeypatch, p):
        tagged = counting_tagged(monkeypatch)
        on = self.reports(p), self.commands(capsys, p)
        assert len(tagged) >= 10
        assert all(rep["passed"] for rep in on[0])
        generators_off(monkeypatch)
        off = self.reports(p), self.commands(capsys, p)
        assert on == off
        # verify ok, the three mutations, quotients by x, y and both, duals.
        assert [code for code, _ in on[1][::2]] == [0, 1, 1, 1, 0, 1, 0] + [0] * 8

    @pytest.mark.parametrize("p", PRIMES)
    def test_broken_presentations_give_the_basis_reports(self, monkeypatch, p):
        controls = broken_presentations(p)
        tagged = counting_tagged(monkeypatch)
        on = {name: verify_axioms(h).to_dict() for name, (h, _) in controls.items()}
        assert len(tagged) == len(controls)
        for name, (h, law) in controls.items():
            failed = {c["name"] for c in on[name]["checks"] if not c["passed"] and c["required"]}
            assert law in failed and "comultiplication is an algebra map" not in failed, name
        generators_off(monkeypatch)
        off = {name: verify_axioms(h).to_dict() for name, (h, _) in controls.items()}
        assert on == off

    @pytest.mark.parametrize("p", PRIMES)
    def test_wrong_splittings_give_the_basis_reports(self, monkeypatch, p):
        samples = wrong_splittings(p)
        on = [exhibit_isomorphism(*sample).to_dict() for sample in samples]
        generators_off(monkeypatch)
        assert [exhibit_isomorphism(*sample).to_dict() for sample in samples] == on
        first = [next((c["name"], c["detail"]) for c in rep["checks"] if not c["passed"])
                 for rep in on[:2]]
        assert first[0] == ("comultiplication preserved", "x")
        assert first[1][0] == "multiplication preserved"
        assert on[2]["passed"]


class TestGeneratorWork:
    """What the generator checks touch, and the premises they rest on."""

    def test_coassociativity_reads_only_the_generator_columns(self, monkeypatch):
        s = hopf.checked_structure(deformation_hopf(5))
        real = hopf.tensor_apply_left
        applied = []

        def counting(f, n, vec):
            if f is s.comul:
                applied.append(vec)
            return real(f, n, vec)

        monkeypatch.setattr(hopf, "tensor_apply_left", counting)
        assert verify_axioms(s).ok
        gens = hopf._generators(s)
        assert [s.labels[g] for g in gens] == ["x", "y"]
        assert applied == [s.comul.cols[g] for g in gens]
        # Negative control: the basis scan reads every column.
        applied.clear()
        generators_off(monkeypatch)
        assert verify_axioms(s).ok
        assert applied == list(s.comul.cols)

    def test_antipode_reads_only_the_generator_columns(self, monkeypatch):
        # _factor_groups splits each comultiplication column once for the
        # cocommutativity check, and the antipode split only the generators'.
        s = hopf.checked_structure(deformation_hopf(5))
        real = hopf._factor_groups
        split = []
        monkeypatch.setattr(hopf, "_factor_groups", lambda u, r: split.append(u) or real(u, r))
        assert verify_axioms(s).ok
        d = s.comul.cols
        assert split == list(d) + [d[g] for g in hopf._generators(s)]
        # Negative control: with the tag off the antipode goes to the
        # transpose, the sparser side, and splits each of its columns.
        split.clear()
        generators_off(monkeypatch)
        assert verify_axioms(s).ok
        assert split[:s.rank] == list(d) and len(split) == 2 * s.rank

    def test_mu_makes_at_most_two_products_per_basis_element(self, monkeypatch):
        s = hopf.checked_structure(catalog_build("mu", 5, 2, Fiber.GENERIC).hopf)
        calls = []
        real = HopfAlgebra.square_mult
        monkeypatch.setattr(HopfAlgebra, "square_mult",
                            lambda x, u, v: calls.append(x) or real(x, u, v))
        assert verify_axioms(s).ok
        assert 0 < len(calls) <= 2 * s.rank and all(x is s for x in calls)
        calls.clear()
        generators_off(monkeypatch)
        assert verify_axioms(s).ok
        assert len(calls) == s.rank * (s.rank + 1) // 2

    @pytest.mark.parametrize("p", PRIMES + [5])
    def test_normal_form_tables_are_the_element_products(self, p):
        for h in pipeline_presentations(p):
            A, s = h.algebra, as_structure(h)
            basis = [A.monomial(e) for e in A.iter_basis()]
            assert s.mult.cols == tuple((a * b).vec() for a in basis for b in basis)
            assert s.generators == tuple(next(iter(A.gen(i).vec())) for i in range(len(A.gens)))

    @pytest.mark.parametrize("p", PRIMES)
    def test_normal_form_tables_are_associative(self, p):
        # The triple scan the generator checks rest on, for every table.
        for h in pipeline_presentations(p) + [h for h, _ in broken_presentations(p).values()]:
            s = hopf.checked_structure(h)
            e = [{i: 1 if s.modulus else s.ring.one()} for i in range(s.rank)]
            for i, j, k in itertools.product(range(s.rank), repeat=3):
                assert (s.vec_mult(s.vec_mult(e[i], e[j]), e[k])
                        == s.vec_mult(e[i], s.vec_mult(e[j], e[k]))), (h, i, j, k)

    def test_raw_structures_and_transposes_carry_no_tag(self):
        h = deformation_hopf(3)
        s = as_structure(h)
        checked = hopf.checked_structure(h)
        assert hopf._generators(checked) == s.generators == (3, 1)
        assert checked.generators is None and checked.source is s
        assert hopf._transpose(checked).generators is None
        assert hopf._generators(cartier_dual(s)) is None
        assert as_structure(catalog_build("constant_cyclic", 3, 2).hopf).generators is None
        raw = HopfAlgebra(s.ring, s.labels, s.mult, s.unit, s.comul, s.counit, s.antipode)
        assert raw.generators is None


def reaching_transpose(monkeypatch):
    """(structure, its sparser transpose or None) for every structure
    handed to hopf._sparser_transpose, in order."""
    real = hopf._sparser_transpose
    seen = []

    def recording(s):
        t = real(s)
        seen.append((s, t))
        return t

    monkeypatch.setattr(hopf, "_sparser_transpose", recording)
    return seen


class TestPlacement:
    """verify_axioms places each check by one rule: on the generators of a
    presentation, else on the sparser side, else by the basis scan.  So no
    presentation reaches the transpose.  With the tag off, TestGeneratorOracle
    sends a presentation's self-transposed laws to the transpose when it is
    the sparser side, so that oracle compares the generator route with the
    transposed route on the deformation, its generic fiber and the quotient."""

    @pytest.mark.parametrize("mutation", [None] + sorted(MUTATIONS))
    @pytest.mark.parametrize("argv", [["verify", "--p", "2"], ["verify", "--p", "3"],
                                      ["verify", "--p", "5", "--slow"]])
    def test_no_presentation_reaches_the_transpose(self, capsys, monkeypatch, argv, mutation):
        seen = reaching_transpose(monkeypatch)
        tagged = counting_tagged(monkeypatch)
        extra = [] if mutation is None else ["--mutate", mutation]
        assert cli.main(["--format", "json"] + argv + extra) == (0 if mutation is None else 1)
        capsys.readouterr()
        q = int(argv[2]) ** 2
        if mutation is None:
            # The generic constant scheme of the dual step, transposed.
            assert [(s.labels, t is not None) for s, t in seen] == [
                (tuple(f"d{j}" for j in range(q)), True)]
        else:
            # corrupt-antipode stops at axioms-base-ring, the two others at
            # build.
            assert seen == []
            assert bool(tagged) == (mutation == "corrupt-antipode")
        assert all(hopf._generators(s) is None for s, _ in seen)

    @pytest.mark.parametrize("p", PRIMES + [5])
    def test_the_constant_cyclic_scheme_still_reaches_it(self, monkeypatch, p):
        for k in (1, 2):
            for fiber in Fiber:
                seen = reaching_transpose(monkeypatch)
                entry = catalog_build("constant_cyclic", p, k, fiber)
                assert [s for s, _ in seen] == [entry.checked]
                assert seen[0][1] is not None and hopf._generators(entry.checked) is None
                assert entry.checked.rank == p**k


class TestSharedDuals:
    def test_dual_builds_one_cartier_dual(self, capsys, monkeypatch):
        calls = []
        real = hopf.cartier_dual
        monkeypatch.setattr(hopf, "cartier_dual", lambda h: calls.append(h) or real(h))
        argv = ["--format", "json", "dual", "--p", "5", "--fiber", "generic", "--power", "2",
                "--name", "mu"]
        assert cli.main(argv) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
            "1cfdfbfd147b435044196bd4ccbc29f115d51f3896cb1017be9381d4b4a8afc7")
        assert len(calls) == 1

    @pytest.mark.parametrize("name,k", [("alpha_p", 1), ("mu", 2), ("constant_cyclic", 2)])
    def test_the_given_dual_gives_the_rebuilt_report(self, name, k):
        entry = catalog_build(name, 3, k, Fiber.GENERIC)
        _, dual, _ = hopf.catalog_dual(entry)
        assert (double_dual_report(entry.checked, dual).to_dict()
                == double_dual_report(entry.checked).to_dict())


class TestGradedReplay:
    """A side already on graded residues is taken as it is, and gives the
    constraints of the source it was read from: the conversion agrees with
    reading that source over the ring."""

    @pytest.mark.parametrize("p", PRIMES + [5])
    def test_replay_gives_the_ring_read(self, monkeypatch, p):
        ge = specialize_hopf(deformation_hopf(p), Fiber.GENERIC)
        checked = hopf.checked_structure(ge)
        mu, phi = iso_mu_to_generic(ge)
        read = []
        real = hopf._Grading.columns
        monkeypatch.setattr(hopf._Grading, "columns",
                            lambda g, cols, *rest: read.append(cols) or real(g, cols, *rest))
        replayed = hopf._at_one((mu, checked), phi)
        # mu is t-free and gives its constraints at k = 0 from its residues;
        # the generic fiber's are read again from its source, then phi.
        src = checked.source
        assert read == [[src.unit], src.counit.cols, src.antipode.cols, src.comul.cols,
                        src.mult.cols, phi.cols]
        from_ring = hopf._at_one((mu, as_structure(ge)), phi)
        assert replayed[1] is checked
        assert replayed[2].cols == from_ring[2].cols
        assert checked.degrees == from_ring[1].degrees
        # Both sides replayed, against both read over the ring.
        ident = LinearMap.identity(ge.ring, ge.rank)
        both = hopf._at_one((checked, checked), ident)
        s = as_structure(ge)
        from_ring = hopf._at_one((s, s), ident)
        assert both[:2] == (checked, checked) and both[2].cols == from_ring[2].cols
        assert from_ring[0].degrees == from_ring[1].degrees == checked.degrees
        # A map off the grading (y -> t*y) conflicts on both reads.
        cols = [dict(col) for col in ident.cols]
        cols[1] = {1: ge.ring.t()}
        scaled = LinearMap(ge.ring, ge.rank, ge.rank, cols)
        assert hopf._at_one((checked, checked), scaled) is None
        assert hopf._at_one((s, s), scaled) is None
