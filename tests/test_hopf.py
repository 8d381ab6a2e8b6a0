"""Tests for Hopf structures: the deformation, its fibers, duality, quotients."""

import hashlib
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
    IsoCheck,
    IsoReport,
    MUTATIONS,
    alpha_self_duality,
    as_structure,
    cartier_dual,
    catalog_build,
    deformation_hopf,
    double_dual_report,
    exhibit_isomorphism,
    generic_grouplike,
    grouplike_order,
    grouplike_power_matrix,
    hopf_quotient,
    is_grouplike,
    iso_alpha_product_to_dual_special,
    iso_constant_to_dual_generic,
    iso_mu_to_dual_constant,
    iso_mu_to_generic,
    iso_special_to_alpha_product,
    presentation_to_json,
    primitive_space,
    specialize_hopf,
    specialize_linear_map,
    verify_axioms,
)
from hopfdeform.algebra import LinearMap
from hopfdeform.rings import Fiber, PrimeField

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

    @pytest.mark.parametrize("p", PRIMES)
    def test_comultiplication_images(self, p):
        h = deformation_hopf(p)
        A, sq, R = h.algebra, h.square, h.algebra.ring
        one, x, y = A.one(), A.gen(0), A.gen(1)
        dy = sq.pure_tensor(one, y) + sq.pure_tensor(y, one) + sq.pure_tensor(y, y) * R.t()
        dx = sq.pure_tensor(one, x) + sq.pure_tensor(x, one) + sq.pure_tensor(x, x) * R.t(p + 1)
        assert h.comul_images == (dx, dy)
        assert all(c.is_zero() for c in h.counit_scalars)

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
        h, dual, phi = alpha_self_duality(p, Fiber.SPECIAL)
        assert exhibit_isomorphism(h, dual, phi).ok

    @pytest.mark.parametrize("p,k", [(2, 1), (2, 2), (3, 1), (3, 2)])
    def test_mu_is_dual_to_the_constant_scheme(self, p, k):
        mu, dual, phi = iso_mu_to_dual_constant(p, k, Fiber.GENERIC)
        assert exhibit_isomorphism(mu, dual, phi).ok

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
