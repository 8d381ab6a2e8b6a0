"""Monomial quotient algebras: normal forms, tensor products, homs, linear maps."""

import itertools
import random

import pytest

from hopfdeform.algebra import (
    LinearMap,
    MonomialQuotientAlgebra,
    algebra_hom,
    in_span,
    invert_unit,
    multiplication_matrix,
    null_space,
    row_reduce,
    tensor_apply,
    tensor_apply_left,
    tensor_apply_right,
    unit_algebra,
)
from hopfdeform.errors import (
    InadmissiblePresentationError,
    NonUnitError,
    NotInvertibleError,
    ParentMismatchError,
    RankGuardError,
    RelationViolationError,
)
from hopfdeform.rings import (
    FunctionField,
    LocalRing,
    LocalRingElement,
    PrimeField,
    UnivariatePoly,
)


def deformation_algebra(p):
    """R[x,y] with x^p = 0 and y^p = t*x over F_p[t] localized at (t)."""
    R = LocalRing(p)
    return MonomialQuotientAlgebra(
        R, ("x", "y"), (p, p), [{}, {(1, 0): R.t()}]
    )


def oracle_basis_product(p, m1, m2):
    """Closed-form product of two basis monomials of the deformation algebra.

    Derived by hand from the rules: x^p = 0 and y^p = t*x, so
    x^a y^b * x^c y^d = t^k * x^(a+c+k) y^r with b+d = k*p + r,
    vanishing when a+c+k >= p.  Valid for basis exponents (each < p),
    where k is 0 or 1.
    """
    (a, b), (c, d) = m1, m2
    k, r = divmod(b + d, p)
    if a + c + k >= p:
        return None
    return k, (a + c + k, r)


class TestNormalForm:
    def test_defining_rules(self):
        for p in (2, 3, 5):
            A = deformation_algebra(p)
            x, y = A.gen(0), A.gen(1)
            t = A.scalar(A.ring.t())
            assert (x**p).is_zero()
            assert y**p == t * x
            assert A.rank == p * p

    def test_products_match_hand_oracle(self):
        for p in (2, 3):
            A = deformation_algebra(p)
            t = A.ring.t()
            for m1 in A.iter_basis():
                for m2 in A.iter_basis():
                    got = A.monomial(m1) * A.monomial(m2)
                    expected = oracle_basis_product(p, m1, m2)
                    if expected is None:
                        assert got.is_zero(), (m1, m2)
                    else:
                        k, exps = expected
                        coeff = A.ring.one()
                        for _ in range(k):
                            coeff = coeff * t
                        assert got == A.monomial(exps, coeff), (m1, m2)

    def test_deep_powers(self):
        # y has nilpotency degree exactly p^2
        for p in (2, 3):
            A = deformation_algebra(p)
            y = A.gen(1)
            assert not (y ** (p * p - 1)).is_zero()
            assert (y ** (p * p)).is_zero()

    def test_ring_axioms_seeded(self):
        rng = random.Random(99)
        A = deformation_algebra(3)

        def rand_elem():
            out = A.zero()
            for _ in range(rng.randrange(4)):
                exps = (rng.randrange(3), rng.randrange(3))
                c = LocalRingElement(
                    UnivariatePoly([rng.randrange(3) for _ in range(3)], 3)
                )
                out = out + A.monomial(exps, c)
            return out

        for _ in range(25):
            a, b, c = rand_elem(), rand_elem(), rand_elem()
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c

    def test_parent_mismatch(self):
        with pytest.raises(ParentMismatchError):
            deformation_algebra(2).gen(0) + deformation_algebra(3).gen(0)


class TestBasisOrder:
    def test_lexicographic_first_generator_most_significant(self):
        A = deformation_algebra(2)
        order = [A.monomial_str(e) for e in A.iter_basis()]
        assert order == ["1", "y", "x", "x*y"]
        assert [A.index(e) for e in A.iter_basis()] == [0, 1, 2, 3]

    def test_tensor_square_rank_and_order(self):
        A = deformation_algebra(2)
        T = A.tensor(A)
        assert T.rank == 16
        labels = [T.monomial_str(e) for e in T.iter_basis()]
        assert labels[0] == "1⊗1"
        assert labels[1] == "1⊗y"
        assert labels[4] == "y⊗1"
        assert labels[-1] == "x*y⊗x*y"
        # left factor exponents vary slowest
        assert labels.index("y⊗1") == 1 * 4

    def test_pure_tensor(self):
        A = deformation_algebra(2)
        T = A.tensor(A)
        x, y = A.gen(0), A.gen(1)
        elem = T.pure_tensor(x + y, y)
        assert elem == T.pure_tensor(x, y) + T.pure_tensor(y, y)
        assert (
            T.pure_tensor(y, y) * T.pure_tensor(y, y)
            == T.pure_tensor(y * y, y * y)
        )


class TestAdmissibility:
    def test_cyclic_rules_rejected(self):
        R = LocalRing(2)
        with pytest.raises(InadmissiblePresentationError):
            MonomialQuotientAlgebra(
                R, ("u", "v"), (2, 2), [{(0, 1): R.one()}, {(1, 0): R.one()}]
            )

    def test_self_reference_with_lower_exponent_allowed(self):
        # w^3 = w terminates: each rewrite strictly drops the degree
        F = PrimeField(3)
        B = MonomialQuotientAlgebra(F, ("w",), (3,), [{(1,): F.one()}])
        w = B.gen(0)
        assert w**3 == w
        assert w**5 == w**3 * w * w

    def test_rhs_must_be_basis_supported(self):
        R = LocalRing(2)
        with pytest.raises(InadmissiblePresentationError):
            MonomialQuotientAlgebra(R, ("u",), (2,), [{(2,): R.one()}])

    def test_rank_guard(self):
        with pytest.raises(RankGuardError):
            MonomialQuotientAlgebra(
                PrimeField(7), tuple("abcdef"), (7,) * 6, [{}] * 6
            )


class TestSerialization:
    def test_element_string(self):
        A = deformation_algebra(2)
        R = A.ring
        one_over_1pt = LocalRingElement(UnivariatePoly([1], 2), UnivariatePoly([1, 1], 2))
        elem = A.one() + A.monomial((1, 0), R.t()) + A.monomial((1, 1), one_over_1pt)
        assert str(elem) == "1 + t*x + (1/(1+t))*x*y"
        assert str(A.zero()) == "0"

    def test_tensor_string(self):
        A = deformation_algebra(2)
        T = A.tensor(A)
        y = A.gen(1)
        elem = T.pure_tensor(A.one(), y) + T.pure_tensor(y, y) * A.ring.t()
        assert str(elem) == "1⊗y + t*y⊗y"


class TestAlgebraHom:
    def test_identity_hom(self):
        A = deformation_algebra(3)
        phi = algebra_hom(A, A, [A.gen(0), A.gen(1)])
        assert phi == LinearMap.identity(A.ring, A.rank)

    def test_relation_violation(self):
        F = PrimeField(2)
        B = MonomialQuotientAlgebra(F, ("u",), (2,), [{}])
        with pytest.raises(RelationViolationError):
            algebra_hom(B, B, [B.one() + B.gen(0)])  # (1+u)^2 = 1 != 0

    def test_swap_on_special_fiber_square(self):
        # u <-> v respects u^2 = v^2 = 0
        F = PrimeField(2)
        B = MonomialQuotientAlgebra(F, ("u", "v"), (2, 2), [{}, {}])
        phi = algebra_hom(B, B, [B.gen(1), B.gen(0)])
        uv = B.gen(0) * B.gen(1)
        assert B.from_vec(phi.apply(uv.vec())) == uv
        assert B.from_vec(phi.apply(B.gen(0).vec())) == B.gen(1)

    def test_scalar_coefficients_carried(self):
        A = deformation_algebra(2)
        phi = algebra_hom(A, A, [A.gen(0), A.gen(1)])
        elem = A.monomial((0, 1), A.ring.t())
        assert A.from_vec(phi.apply(elem.vec())) == elem


class TestUnits:
    def test_invert_one_plus_ty(self):
        for p in (2, 3):
            A = deformation_algebra(p)
            u = A.one() + A.gen(1) * A.ring.t()
            v = invert_unit(u)
            assert u * v == A.one()

    def test_invert_scaled_unit(self):
        A = deformation_algebra(3)
        u = A.scalar(A.ring.from_int(2)) + A.gen(0)
        assert u * invert_unit(u) == A.one()

    def test_nonunit_rejected(self):
        A = deformation_algebra(3)
        with pytest.raises(NonUnitError):
            invert_unit(A.gen(1))

    def test_matrix_fallback_for_nonlocal_algebra(self):
        # w^3 = w makes B = F_3[w]/(w^3 - w) a product of fields; 1 + w^2
        # takes the values 1, 2, 2 at the points w = 0, 1, 2, so it is a
        # unit even though its augmentation part is not nilpotent
        F = PrimeField(3)
        B = MonomialQuotientAlgebra(F, ("w",), (3,), [{(1,): F.one()}])
        u = B.one() + B.gen(0) * B.gen(0)
        assert u * invert_unit(u) == B.one()
        # 1 + w vanishes at the point w = 2, hence is a zero divisor
        with pytest.raises(NonUnitError):
            invert_unit(B.one() + B.gen(0))


class TestLinearMaps:
    def test_inverse_over_local_ring(self):
        R = LocalRing(3)
        one_plus_t = R.one() + R.t()
        m = LinearMap(R, 2, 2, [{0: one_plus_t}, {1: R.one()}])
        inv = m.inverse()
        assert inv.compose(m) == LinearMap.identity(R, 2)
        bad = LinearMap(R, 2, 2, [{0: R.t()}, {1: R.one()}])
        with pytest.raises(NotInvertibleError):
            bad.inverse()

    def test_inverse_seeded_over_field(self):
        rng = random.Random(5)
        F = PrimeField(5)
        for _ in range(20):
            cols = [
                {i: F.from_int(rng.randrange(5)) for i in range(3)} for _ in range(3)
            ]
            m = LinearMap(F, 3, 3, cols)
            try:
                inv = m.inverse()
            except NotInvertibleError:
                continue
            assert m.compose(inv) == LinearMap.identity(F, 3)

    def test_transpose_and_kron(self):
        F = PrimeField(2)
        m = LinearMap(F, 2, 3, [{0: F.one(), 2: F.one()}, {1: F.one()}])
        assert m.transpose().transpose() == m
        ident = LinearMap.identity(F, 2)
        k = m.kron(ident)
        assert k.source_dim == 4 and k.target_dim == 6
        # kron respects the left-most-significant index convention
        vec = {0 * 2 + 1: F.one()}  # e_0 (x) e_1
        assert k.apply(vec) == {0 * 2 + 1: F.one(), 2 * 2 + 1: F.one()}

    def test_tensor_apply_matches_kron(self):
        rng = random.Random(11)
        F = PrimeField(3)
        for _ in range(10):
            f = LinearMap(
                F, 2, 2, [{i: F.from_int(rng.randrange(3)) for i in range(2)} for _ in range(2)]
            )
            g = LinearMap(
                F, 2, 2, [{i: F.from_int(rng.randrange(3)) for i in range(2)} for _ in range(2)]
            )
            vec = {i: F.from_int(rng.randrange(3)) for i in range(4)}
            vec = {i: c for i, c in vec.items() if not c.is_zero()}
            assert tensor_apply(f, g, vec) == f.kron(g).apply(vec)

    @staticmethod
    def random_map(rng, F, source, target, empty=()):
        """Random source -> target map over F whose columns listed in empty are zero."""
        return LinearMap(F, source, target, [
            {} if j in empty else {i: F.from_int(rng.randrange(F.p)) for i in range(target)}
            for j in range(source)
        ])

    @staticmethod
    def random_vec(rng, F, dim):
        vec = {i: F.from_int(rng.randrange(F.p)) for i in range(dim)}
        return {i: c for i, c in vec.items() if not c.is_zero()}

    def test_one_sided_maps_on_non_square_shapes_match_kron(self):
        # f: 2 -> 3 and g: 3 -> 1, so neither factor's source and target agree.
        rng = random.Random(12)
        F = PrimeField(5)
        for _ in range(20):
            f = self.random_map(rng, F, 2, 3)
            g = self.random_map(rng, F, 3, 1)
            vec = self.random_vec(rng, F, 6)
            assert tensor_apply(f, g, vec) == f.kron(g).apply(vec)
            assert tensor_apply_left(f, 3, vec) == f.kron(LinearMap.identity(F, 3)).apply(vec)
            assert tensor_apply_right(g, vec) == LinearMap.identity(F, 2).kron(g).apply(vec)
            # g (x) f as well: the product index of the other shape
            assert tensor_apply(g, f, vec) == g.kron(f).apply(vec)

    def test_identity_factor_on_either_side(self):
        rng = random.Random(13)
        F = PrimeField(3)
        for _ in range(10):
            f = self.random_map(rng, F, 3, 2)
            vec = self.random_vec(rng, F, 12)  # 3 x 4 on the left, 4 x 3 on the right
            ident = LinearMap.identity(F, 4)
            assert tensor_apply(f, ident, vec) == tensor_apply_left(f, 4, vec)
            assert tensor_apply(f, ident, vec) == f.kron(ident).apply(vec)
            assert tensor_apply(ident, f, vec) == tensor_apply_right(f, vec)
            assert tensor_apply(ident, f, vec) == ident.kron(f).apply(vec)

    def test_zero_columns(self):
        rng = random.Random(14)
        F = PrimeField(7)
        for _ in range(10):
            f = self.random_map(rng, F, 3, 2, empty={1})
            g = self.random_map(rng, F, 2, 3, empty={0})
            vec = self.random_vec(rng, F, 6)
            assert tensor_apply(f, g, vec) == f.kron(g).apply(vec)
            assert tensor_apply_left(f, 2, vec) == f.kron(LinearMap.identity(F, 2)).apply(vec)
            assert tensor_apply_right(g, vec) == LinearMap.identity(F, 3).kron(g).apply(vec)
        zero = LinearMap(F, 2, 2, [{}, {}])
        assert tensor_apply(zero, zero, {0: F.one(), 3: F.one()}) == {}
        assert tensor_apply_left(zero, 2, {1: F.one()}) == {}
        assert tensor_apply_right(zero, {2: F.one()}) == {}

    def test_null_space(self):
        F = PrimeField(3)
        # columns: e0, e0, 0 -> kernel spanned by (1,-1,0) and (0,0,1)
        m = LinearMap(F, 3, 2, [{0: F.one()}, {0: F.one()}, {}])
        basis = null_space(m)
        assert len(basis) == 2
        for vec in basis:
            assert m.apply(vec) == {}

    def test_multiplication_matrix(self):
        A = deformation_algebra(2)
        y = A.gen(1)
        m = multiplication_matrix(y)
        assert A.from_vec(m.apply(y.vec())) == y * y



class TestInverseAndKernel:
    """What the shared elimination kernel owes LinearMap.inverse and null_space."""

    @pytest.mark.parametrize("ring,cols,column", [
        # det = t: invertible over F_3(t) but not over F_3[t]_(t), and the
        # second column is the first one that depends on the earlier ones mod t
        ("local", lambda R, t: [{0: R.one()}, {0: R.one(), 1: t}, {2: R.one()}], 1),
        ("local", lambda R, t: [{0: R.one()}, {1: R.one()}, {0: R.one(), 1: R.one(), 2: t}], 2),
        ("field", lambda R, t: [{0: R.one(), 1: R.one()}, {0: R.from_int(2), 1: R.from_int(2)},
                                {2: R.one()}], 1),
        ("field", lambda R, t: [{0: R.one()}, {1: R.one()}, {0: R.one(), 1: R.from_int(2)}], 2),
    ], ids=["local-column-1", "local-column-2", "field-column-1", "field-column-2"])
    def test_not_invertible_names_the_column(self, ring, cols, column):
        R = LocalRing(3) if ring == "local" else PrimeField(3)
        t = R.t() if ring == "local" else None
        m = LinearMap(R, 3, 3, cols(R, t))
        with pytest.raises(NotInvertibleError) as exc:
            m.inverse()
        assert str(exc.value) == (
            f"no unit pivot in column {column}; the map is not invertible over {R.tag}"
        )

    def test_inverse_when_the_first_unit_is_not_the_least_valuation(self):
        # Over F_3[t]_(t) column 0 meets the non-unit t before the unit 1.
        R = LocalRing(3)
        t = R.t()
        m = LinearMap(R, 2, 2, [{0: t, 1: R.one()}, {0: R.one()}])
        expected = LinearMap(R, 2, 2, [{1: R.one()}, {0: R.one(), 1: -t}])
        assert m.inverse() == expected
        # Over F_3(t) column 0 meets the unit t (valuation 1) before 1/t
        # (valuation -1).
        K = FunctionField(3)
        s = K.t()
        s_inv = K.one() / s
        m = LinearMap(K, 2, 2, [{0: s, 1: s_inv}, {0: K.one(), 1: K.one()}])
        inv = m.inverse()
        assert inv.compose(m) == LinearMap.identity(K, 2)
        assert m.compose(inv) == LinearMap.identity(K, 2)
        det = s - s_inv
        assert inv == LinearMap(K, 2, 2, [{0: K.one() / det, 1: -s_inv / det},
                                          {0: -K.one() / det, 1: s / det}])

    @pytest.mark.parametrize("p", [2, 3])
    def test_null_space_dimension_matches_brute_force(self, p):
        rng = random.Random(100 + p)
        F = PrimeField(p)
        for _ in range(25):
            n, m_dim = rng.randrange(1, 5), rng.randrange(1, 4)
            cols = [{i: F.from_int(rng.randrange(p)) for i in range(m_dim)} for _ in range(n)]
            m = LinearMap(F, n, m_dim, cols)
            basis = null_space(m)
            for vec in basis:
                assert m.apply(vec) == {}
            kernel_size = 0
            for values in itertools.product(range(p), repeat=n):
                vec = {i: F.from_int(v) for i, v in enumerate(values) if v}
                if not m.apply(vec):
                    kernel_size += 1
            assert kernel_size == p ** len(basis)


class TestRowReduce:
    def test_span_over_the_local_ring_respects_valuation(self):
        R = LocalRing(3)
        t = R.t()
        reduced = row_reduce([{0: t}])
        assert in_span(reduced, {0: R.t(2)})
        assert not in_span(reduced, {0: R.one()})

    def test_in_span_is_false_when_a_quotient_leaves_the_ring(self):
        R = LocalRing(3)
        t = R.t()
        one = R.one()
        reduced = row_reduce([{0: one, 1: one}, {1: t}])
        # e0 + (1 + t) e1 = row 0 + row 1
        assert in_span(reduced, {0: one, 1: one + t})
        # e0 + 2 e1 would need (1/t) * row 1
        assert not in_span(reduced, {0: one, 1: R.from_int(2)})

    def test_in_span_is_false_when_something_is_left_over(self):
        F = PrimeField(3)
        reduced = row_reduce([{0: F.one(), 1: F.one()}])
        assert in_span(reduced, {0: F.from_int(2), 1: F.from_int(2)})
        # e0 clears column 0 but leaves -e1, and e2 meets no pivot column
        assert not in_span(reduced, {0: F.one()})
        assert not in_span(reduced, {2: F.one()})

    def test_reduced_echelon_form_over_a_field(self):
        F = PrimeField(5)
        one = F.one()
        rows = [{1: F.from_int(2), 2: one}, {0: F.from_int(3), 1: one}, {0: one, 2: F.from_int(4)}]
        reduced = row_reduce(rows)
        assert [col for col, _ in reduced] == [0, 1]
        for col, row in reduced:
            assert row[col] == one
            assert all(other_col not in row for other_col, _ in reduced if other_col != col)
        assert in_span(reduced, rows[2])


class TestUnitAlgebra:
    def test_rank_one(self):
        U = unit_algebra(LocalRing(2))
        assert U.rank == 1
        assert U.one() * U.one() == U.one()
        assert str(U.one()) == "1"
