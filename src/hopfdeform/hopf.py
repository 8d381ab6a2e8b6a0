"""Hopf algebra structures, their mechanical verification, and Cartier duality.

Two carriers are used.  A HopfPresentation pins the structure maps by
generator images on a MonomialQuotientAlgebra; a HopfAlgebra carries raw
structure tensors on an explicit basis (the form in which duals arrive).
Every checker works on the tensor form, so both carriers are accepted
everywhere.  Each checked identity is one comparison of two composites
built from a small set of kernels: LinearMap.apply, the products
HopfAlgebra.vec_mult (in H) and square_mult (in H(x)H), the outer
product _outer, and the one-sided tensor maps tensor_apply_left
(f (x) id) and tensor_apply_right (id (x) g) of the algebra module.  The
first offender of each identity is found by _first_label (over basis
elements) or _first_pair (over basis pairs i <= j).

The central object built here is the order-p^2 deformation
R[x,y]/(x^p, y^p - t*x) over F_p[t] localized at (t), whose special
fiber is a product of two infinitesimal additive kernels and whose
generic fiber is multiplicative of order p^2.
"""

from __future__ import annotations

import math

from .algebra import (
    AlgebraElement,
    LinearMap,
    MonomialQuotientAlgebra,
    _acc,
    algebra_hom,
    in_span,
    invert_unit,
    null_space,
    row_reduce,
    tensor_apply,
    tensor_apply_left,
    tensor_apply_right,
    unit_algebra,
)
from .errors import (
    ContextMismatchError,
    DimensionMismatchError,
    NotAFieldError,
    NotAHopfIdealError,
    NotCocommutativeError,
    NotCommutativeError,
    NotFreeQuotientError,
    NotInvertibleError,
    ParentMismatchError,
    UnsupportedParametersError,
)
from .rings import Fiber, FunctionField, LocalRing, Prime, PrimeField, specialize_scalar


# ---------------------------------------------------------------------------
# carriers


class HopfAlgebra:
    """Hopf algebra given by structure tensors on an explicit basis.

    mult: H(x)H -> H, comul: H -> H(x)H, counit: H -> R, antipode: H -> H,
    all as sparse-column linear maps; unit is the coefficient vector of 1.
    Tensor indices follow the left-most-significant convention i*rank + j.
    """

    __slots__ = ("ring", "labels", "mult", "unit", "comul", "counit", "antipode", "_by_left")

    def __init__(self, ring, labels, mult, unit, comul, counit, antipode):
        r = len(labels)
        if mult.source_dim != r * r or mult.target_dim != r:
            raise DimensionMismatchError("multiplication tensor has wrong shape")
        if comul.source_dim != r or comul.target_dim != r * r:
            raise DimensionMismatchError("comultiplication tensor has wrong shape")
        if counit.source_dim != r or counit.target_dim != 1:
            raise DimensionMismatchError("counit has wrong shape")
        if antipode.source_dim != r or antipode.target_dim != r:
            raise DimensionMismatchError("antipode has wrong shape")
        self.ring = ring
        self.labels = tuple(labels)
        self.mult = mult
        self.unit = {i: c for i, c in unit.items() if not c.is_zero()}
        self.comul = comul
        self.counit = counit
        self.antipode = antipode
        # _by_left[i][j] is the product column of e_i*e_j, for the nonempty ones.
        self._by_left = [{} for _ in range(r)]
        for ij, col in enumerate(mult.cols):
            if col:
                i, j = divmod(ij, r)
                self._by_left[i][j] = col

    @property
    def rank(self) -> int:
        return len(self.labels)

    def mult_col(self, i: int, j: int) -> dict:
        return self.mult.cols[i * self.rank + j]

    def vec_mult(self, u: dict, v: dict) -> dict:
        out: dict = {}
        for i, a in u.items():
            for b, col in _nonempty_products(self._by_left[i], v):
                c = a * b
                for k, m in col.items():
                    _acc(out, k, c * m)
        return out

    def counit_of(self, u: dict):
        return self.counit.apply(u).get(0, self.ring.zero())

    def square_mult(self, u: dict, v: dict) -> dict:
        """Product in H(x)H of two sparse vectors over the tensor basis.

        A pair whose structure column is empty on either side contributes
        nothing, so its scalar product is never formed.  For each term
        e_i(x)e_j of u, the loop runs over whichever is smaller: the terms
        of v, or the pairs of nonempty product columns of e_i and e_j.
        """
        r = self.rank
        out: dict = {}
        for ij, a in u.items():
            i, j = divmod(ij, r)
            row1, row2 = self._by_left[i], self._by_left[j]
            if len(v) <= len(row1) * len(row2):
                terms = []
                for kl, b in v.items():
                    k, l = divmod(kl, r)
                    w1, w2 = row1.get(k), row2.get(l)
                    if w1 and w2:
                        terms.append((b, w1, w2))
            else:
                terms = [(b, w1, w2) for k, w1 in row1.items() for l, w2 in row2.items()
                         if (b := v.get(k * r + l)) is not None]
            for b, w1, w2 in terms:
                c = a * b
                for t1, c1 in w1.items():
                    base = t1 * r
                    cc1 = c * c1
                    for t2, c2 in w2.items():
                        _acc(out, base + t2, cc1 * c2)
        return out

    def __repr__(self):
        return f"<HopfAlgebra rank {self.rank} over {self.ring.tag}>"


def _nonempty_products(row: dict, vec: dict) -> list:
    """(vec[j], row[j]) for every index j held by both.

    row maps indices to nonempty product columns.  The loop runs over the
    smaller of the two, so a sparse operand costs its own size and a dense
    one the size of the row.
    """
    if len(vec) <= len(row):
        return [(c, row[j]) for j, c in vec.items() if j in row]
    return [(vec[j], col) for j, col in row.items() if j in vec]


def _outer(u: dict, v: dict, r: int) -> dict:
    out = {}
    for i, a in u.items():
        base = i * r
        for j, b in v.items():
            c = a * b
            if not c.is_zero():
                out[base + j] = c
    return out


class HopfPresentation:
    """Hopf structure pinned by generator images on a presented algebra."""

    def __init__(self, algebra, square, comul_images, counit_scalars, antipode_images,
                 comul, counit, antipode):
        self.algebra = algebra
        self.square = square
        self.comul_images = tuple(comul_images)
        self.counit_scalars = tuple(counit_scalars)
        self.antipode_images = tuple(antipode_images)
        self.comul = comul
        self.counit = counit
        self.antipode = antipode
        self._structure = None

    @property
    def ring(self):
        return self.algebra.ring

    @property
    def rank(self) -> int:
        return self.algebra.rank

    def comul_of(self, elem: AlgebraElement) -> AlgebraElement:
        return self.square.from_vec(self.comul.apply(elem.vec()))

    def counit_of(self, elem: AlgebraElement):
        return self.counit.apply(elem.vec()).get(0, self.ring.zero())

    def antipode_of(self, elem: AlgebraElement) -> AlgebraElement:
        return self.algebra.from_vec(self.antipode.apply(elem.vec()))

    def structure(self) -> HopfAlgebra:
        if self._structure is None:
            A = self.algebra
            basis = [A.monomial(e) for e in A.iter_basis()]
            cols = []
            for a in basis:
                for b in basis:
                    cols.append((a * b).vec())
            mult = LinearMap(A.ring, A.rank * A.rank, A.rank, cols)
            labels = tuple(A.monomial_str(e) for e in A.iter_basis())
            self._structure = HopfAlgebra(
                A.ring, labels, mult, A.one().vec(), self.comul, self.counit, self.antipode
            )
        return self._structure

    def __repr__(self):
        return f"<HopfPresentation on {self.algebra!r}>"


def hopf_presentation(algebra, comul_images, counit_scalars, antipode_images) -> HopfPresentation:
    """Assemble and validate a Hopf presentation.

    The comultiplication, counit and antipode are extended from the given
    generator images as algebra homomorphisms; extension fails with
    RelationViolationError if any defining relation is not preserved.
    """
    square = algebra.tensor(algebra)
    comul = algebra_hom(algebra, square, list(comul_images))
    U = unit_algebra(algebra.ring)
    counit = algebra_hom(algebra, U, [U.scalar(c) for c in counit_scalars])
    antipode = algebra_hom(algebra, algebra, list(antipode_images))
    return HopfPresentation(
        algebra, square, comul_images, counit_scalars, antipode_images,
        comul, counit, antipode,
    )


def as_structure(h) -> HopfAlgebra:
    if isinstance(h, HopfAlgebra):
        return h
    if isinstance(h, HopfPresentation):
        return h.structure()
    raise UnsupportedParametersError(f"not a Hopf carrier: {type(h).__name__}")


# ---------------------------------------------------------------------------
# axiom verification


class AxiomCheck:
    __slots__ = ("name", "passed", "required", "detail")

    def __init__(self, name: str, passed: bool, required: bool = True,
                 detail: str | None = None):
        self.name = name
        self.passed = passed
        self.required = required
        self.detail = detail


class AxiomReport:
    __slots__ = ("checks",)

    def __init__(self, checks: list[AxiomCheck] | None = None):
        self.checks = [] if checks is None else checks

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks if c.required)

    def failures(self) -> list[AxiomCheck]:
        return [c for c in self.checks if not c.passed]

    def summary(self) -> str:
        bad = [c for c in self.failures() if c.required]
        if not bad:
            return "all required identities hold"
        c = bad[0]
        return f"{c.name} fails" + (f" at {c.detail}" if c.detail else "")

    def to_dict(self) -> dict:
        return {
            "passed": self.ok,
            "checks": [
                {"name": c.name, "required": c.required, "passed": c.passed, "detail": c.detail}
                for c in self.checks
            ],
        }


def verify_axioms(h) -> AxiomReport:
    """Check every Hopf identity columnwise; report the first offender per axiom.

    Each identity compares two composites of the structure maps on basis
    elements (or pairs of them).  Cocommutativity is reported but not required.
    """
    s = as_structure(h)
    r = s.rank
    m, unit, d, eps, S = s.mult_col, s.unit, s.comul.cols, s.counit.cols, s.antipode.cols
    one = s.ring.one()
    report = AxiomReport()

    def record(name, offender, required=True):
        report.checks.append(AxiomCheck(name, offender is None, required, offender))

    record("multiplication is commutative", _first_pair(s, lambda i, j: m(i, j) != m(j, i)))
    record("comultiplication is an algebra map",
           "1" if s.comul.apply(unit) != _outer(unit, unit, r) else
           _first_pair(s, lambda i, j: s.comul.apply(m(i, j)) != s.square_mult(d[i], d[j])))
    record("counit is an algebra map",
           "1" if s.counit.apply(unit) != {0: one} else
           _first_pair(s, lambda i, j: s.counit.apply(m(i, j)) != _outer(eps[i], eps[j], 1)))
    record("comultiplication is coassociative", _first_label(
        s, lambda k: tensor_apply_left(s.comul, r, d[k]) != tensor_apply_right(s.comul, d[k])))
    record("counit identities hold", _first_label(
        s, lambda k: tensor_apply_left(s.counit, r, d[k]) != {k: one}
        or tensor_apply_right(s.counit, d[k]) != {k: one}))

    def antipode_differs(k):
        # m(S (x) id) and m(id (x) S) on comul(e_k) = sum e_i (x) a_i = sum b_j (x) e_j
        rows, cols = _factor_groups(d[k], r)
        expected = _outer(eps[k], unit, r)
        return (_sum(s.vec_mult(S[i], a) for i, a in rows.items()) != expected
                or _sum(s.vec_mult(b, S[j]) for j, b in cols.items()) != expected)

    record("antipode identities hold", _first_label(s, antipode_differs))
    record("comultiplication is cocommutative",
           _first_label(s, lambda k: _is_flip_asymmetric(d[k], r)), required=False)
    return report


def _first_label(s: HopfAlgebra, differs) -> str | None:
    """Label of the first basis element k with differs(k), or None."""
    return next((s.labels[k] for k in range(s.rank) if differs(k)), None)


def _first_pair(s: HopfAlgebra, differs) -> str | None:
    """Labels of the first basis pair i <= j with differs(i, j), or None."""
    r = s.rank
    return next((f"{s.labels[i]}, {s.labels[j]}"
                 for i in range(r) for j in range(i, r) if differs(i, j)), None)


def _factor_groups(u: dict, r: int) -> tuple[dict, dict]:
    """u = sum e_i (x) a_i = sum b_j (x) e_j in H(x)H, as ({i: a_i}, {j: b_j})."""
    rows: dict = {}
    cols: dict = {}
    for ij, c in u.items():
        i, j = divmod(ij, r)
        rows.setdefault(i, {})[j] = c
        cols.setdefault(j, {})[i] = c
    return rows, cols


def _is_flip_asymmetric(u: dict, r: int) -> bool:
    """Whether u in H(x)H differs from its image under a(x)b -> b(x)a."""
    rows, cols = _factor_groups(u, r)
    return rows != cols


def _sum(vecs) -> dict:
    out: dict = {}
    for v in vecs:
        for i, c in v.items():
            _acc(out, i, c)
    return out


# ---------------------------------------------------------------------------
# the deformation and its fibers

MUTATIONS = {
    "drop-comul-t-term": "omit the degree-two term of the comultiplication of y",
    "drop-comul-x-term": "omit the degree-two term of the comultiplication of x",
    "corrupt-antipode": "add a stray x to the antipode image of y",
}


def deformation_hopf(p: int, mutation: str | None = None) -> HopfPresentation:
    """The rank-p^2 Hopf algebra R[x,y]/(x^p, y^p - t*x) over F_p[t]_(t).

    Comultiplication sends y to 1(x)y + y(x)1 + t*y(x)y; the image of x is
    the unique compatible choice 1(x)x + x(x)1 + t^(p+1)*x(x)x.  At t = 0
    both generators become primitive; after inverting t the element 1 + t*y
    becomes grouplike of order p^2.

    The mutation hook deliberately damages one structure map and exists
    only as a negative control for the verification pipeline.
    """
    if mutation is not None and mutation not in MUTATIONS:
        raise UnsupportedParametersError(f"unknown mutation {mutation!r}")
    p = Prime(p).p
    R = LocalRing(p)
    t = R.t()
    A = MonomialQuotientAlgebra(R, ("x", "y"), (p, p), [{}, {(1, 0): t}])
    sq = A.tensor(A)
    one, x, y = A.one(), A.gen(0), A.gen(1)
    dx = sq.pure_tensor(one, x) + sq.pure_tensor(x, one) + sq.pure_tensor(x, x) * R.t(p + 1)
    dy = sq.pure_tensor(one, y) + sq.pure_tensor(y, one) + sq.pure_tensor(y, y) * t
    if mutation == "drop-comul-t-term":
        dy = sq.pure_tensor(one, y) + sq.pure_tensor(y, one)
    if mutation == "drop-comul-x-term":
        dx = sq.pure_tensor(one, x) + sq.pure_tensor(x, one)
    sx = -(x * invert_unit(one + x * R.t(p + 1)))
    sy = -(y * invert_unit(one + y * t))
    if mutation == "corrupt-antipode":
        sy = sy + x
    return hopf_presentation(A, [dx, dy], [R.zero(), R.zero()], [sx, sy])


def _specialize(coeffs: dict, fiber: Fiber) -> dict:
    """Push every coefficient along the fiber map, dropping the ones that vanish."""
    out = {}
    for key, c in coeffs.items():
        sc = specialize_scalar(c, fiber)
        if not sc.is_zero():
            out[key] = sc
    return out


def specialize_hopf(h: HopfPresentation, fiber: Fiber) -> HopfPresentation:
    """Base change along t -> 0 (special) or the inclusion into F_p(t) (generic)."""
    A = h.algebra
    if not isinstance(A.ring, LocalRing):
        raise ContextMismatchError("specialization starts from the local base ring")
    new_ring = A.ring.fiber_ring(fiber)
    B = MonomialQuotientAlgebra(
        new_ring, A.gens, A.bounds, [_specialize(rule, fiber) for rule in A.rules]
    )
    sq = B.tensor(B)
    return hopf_presentation(
        B,
        [AlgebraElement(sq, _specialize(im.coeffs, fiber)) for im in h.comul_images],
        [specialize_scalar(c, fiber) for c in h.counit_scalars],
        [AlgebraElement(B, _specialize(im.coeffs, fiber)) for im in h.antipode_images],
    )


def specialize_linear_map(m: LinearMap, fiber: Fiber) -> LinearMap:
    ring = LocalRing(m.ring.p).fiber_ring(fiber) if isinstance(m.ring, LocalRing) else None
    if ring is None:
        raise ContextMismatchError("specialization starts from the local base ring")
    cols = [_specialize(col, fiber) for col in m.cols]
    return LinearMap(ring, m.source_dim, m.target_dim, cols)


# ---------------------------------------------------------------------------
# catalog of comparison objects


class CatalogEntry:
    __slots__ = ("name", "p", "k", "fiber", "hopf")

    def __init__(self, name: str, p: int, k: int, fiber: Fiber, hopf: object):
        self.name = name
        self.p = p
        self.k = k
        self.fiber = fiber
        self.hopf = hopf  # HopfPresentation or HopfAlgebra

    @property
    def order(self) -> int:
        return self.p**self.k


def catalog_build(name: str, p: int, k: int = 1, fiber: Fiber = Fiber.SPECIAL) -> CatalogEntry:
    """Verified standard group schemes: infinitesimal additive kernel alpha_p,
    the multiplicative kernel mu_q, and the split constant cyclic scheme,
    for q = p^k with k in {1, 2}."""
    p = Prime(p).p
    if k not in (1, 2):
        raise UnsupportedParametersError(f"k = {k} not supported (k must be 1 or 2)")
    if not isinstance(fiber, Fiber):
        raise UnsupportedParametersError(f"unknown fiber {fiber!r}")
    ring = PrimeField(p) if fiber is Fiber.SPECIAL else FunctionField(p)
    q = p**k
    if name == "alpha_p":
        if k != 1:
            raise UnsupportedParametersError("alpha_p takes k = 1")
        A = MonomialQuotientAlgebra(ring, ("x",), (p,), [{}])
        sq = A.tensor(A)
        x = A.gen(0)
        h = hopf_presentation(
            A,
            [sq.pure_tensor(A.one(), x) + sq.pure_tensor(x, A.one())],
            [ring.zero()],
            [-x],
        )
    elif name == "mu":
        A = MonomialQuotientAlgebra(ring, ("z",), (q,), [{(0,): ring.one()}])
        sq = A.tensor(A)
        z = A.gen(0)
        h = hopf_presentation(A, [sq.pure_tensor(z, z)], [ring.one()], [z ** (q - 1)])
    elif name == "constant_cyclic":
        h = _constant_cyclic_structure(ring, q)
    else:
        raise UnsupportedParametersError(f"unknown catalog name {name!r}")
    report = verify_axioms(h)
    if not report.ok:
        raise AssertionError(f"catalog entry {name} failed verification: {report.summary()}")
    return CatalogEntry(name, p, k, fiber, h)


def _constant_cyclic_structure(ring, q: int) -> HopfAlgebra:
    """Functions on the cyclic group of order q, on the point-idempotent basis."""
    one = ring.one()
    labels = tuple(f"d{j}" for j in range(q))
    mult_cols = []
    for a in range(q):
        for b in range(q):
            mult_cols.append({a: one} if a == b else {})
    mult = LinearMap(ring, q * q, q, mult_cols)
    unit = {j: one for j in range(q)}
    comul = LinearMap(
        ring, q, q * q,
        [{a * q + (j - a) % q: one for a in range(q)} for j in range(q)],
    )
    counit = LinearMap(ring, q, 1, [{0: one} if j == 0 else {} for j in range(q)])
    antipode = LinearMap(ring, q, q, [{(q - j) % q: one} for j in range(q)])
    return HopfAlgebra(ring, labels, mult, unit, comul, counit, antipode)


# ---------------------------------------------------------------------------
# grouplikes and primitives


def _as_vec(h, a) -> dict:
    if isinstance(a, AlgebraElement):
        if not (isinstance(h, HopfPresentation) and a.algebra == h.algebra):
            raise ParentMismatchError("element does not belong to this Hopf algebra")
        return a.vec()
    if isinstance(a, dict):
        return {i: c for i, c in a.items() if not c.is_zero()}
    raise UnsupportedParametersError(f"not an element carrier: {type(a).__name__}")


def is_grouplike(h, a) -> bool:
    """Whether comul(a) = a(x)a and counit(a) = 1."""
    s = as_structure(h)
    v = _as_vec(h, a)
    if s.counit_of(v) != s.ring.one():
        return False
    return s.comul.apply(v) == _outer(v, v, s.rank)


def grouplike_order(h, a) -> int:
    """Multiplicative order of a grouplike element; bounded by the rank."""
    s = as_structure(h)
    v = _as_vec(h, a)
    if not is_grouplike(h, a):
        raise UnsupportedParametersError("element is not grouplike")
    power = dict(v)
    for n in range(1, s.rank + 1):
        if power == s.unit:
            return n
        power = s.vec_mult(power, v)
    raise AssertionError("no order found within the rank bound")


def primitive_space(h):
    """Basis of {a : comul(a) = 1(x)a + a(x)1}, over a field base only."""
    s = as_structure(h)
    if not s.ring.is_field:
        raise NotAFieldError(
            f"primitive space needs a field base; over {s.ring.tag} specialize to a fiber first"
        )
    r = s.rank
    left = LinearMap(s.ring, r, r * r, [
        {i * r + k: c for i, c in s.unit.items()} for k in range(r)
    ])
    right = LinearMap(s.ring, r, r * r, [
        {k * r + i: c for i, c in s.unit.items()} for k in range(r)
    ])
    kernel = null_space(s.comul - left - right)
    if isinstance(h, HopfPresentation):
        return [h.algebra.from_vec(v) for v in kernel]
    return kernel


# ---------------------------------------------------------------------------
# Cartier duality


def cartier_dual(h) -> HopfAlgebra:
    """Transpose all structure tensors onto the dual basis.

    Requires commutativity and cocommutativity, so that the dual stays
    inside the commutative world this library handles.
    """
    s = as_structure(h)
    r = s.rank
    pair = _first_pair(s, lambda i, j: s.mult_col(i, j) != s.mult_col(j, i))
    if pair is not None:
        raise NotCommutativeError(f"multiplication is not commutative at {pair}")
    label = _first_label(s, lambda k: _is_flip_asymmetric(s.comul.cols[k], r))
    if label is not None:
        raise NotCocommutativeError(f"comultiplication is not cocommutative at {label}")
    labels = tuple(_dual_label(l) for l in s.labels)
    unit_map = s.counit.transpose()  # 1 -> r
    counit_cols = [
        {0: s.unit[i]} if i in s.unit else {} for i in range(r)
    ]
    return HopfAlgebra(
        s.ring,
        labels,
        s.comul.transpose(),
        dict(unit_map.cols[0]),
        s.mult.transpose(),
        LinearMap(s.ring, r, 1, counit_cols),
        s.antipode.transpose(),
    )


def _dual_label(label: str) -> str:
    if any(ch in label for ch in "*⊗"):
        return f"({label})*"
    return f"{label}*"


# ---------------------------------------------------------------------------
# exhibited isomorphisms


class IsoCheck:
    __slots__ = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: str | None = None):
        self.name = name
        self.passed = passed
        self.detail = detail


class IsoReport:
    __slots__ = ("checks",)

    def __init__(self, checks: list[IsoCheck] | None = None):
        self.checks = [] if checks is None else checks

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def first_failure(self) -> IsoCheck | None:
        for c in self.checks:
            if not c.passed:
                return c
        return None

    def summary(self) -> str:
        bad = self.first_failure
        if bad is None:
            return "isomorphism verified"
        return f"{bad.name} fails" + (f" at {bad.detail}" if bad.detail else "")

    def to_dict(self) -> dict:
        return {
            "passed": self.ok,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail} for c in self.checks
            ],
        }


def exhibit_isomorphism(h1, h2, phi: LinearMap) -> IsoReport:
    """Verify that a given linear map is a Hopf algebra isomorphism.

    Nothing is searched for: the candidate map must be supplied, and every
    structure-compatibility identity is checked mechanically.
    """
    s1, s2 = as_structure(h1), as_structure(h2)
    report = IsoReport()

    def record(name, passed, detail=None):
        report.checks.append(IsoCheck(name, passed, None if passed else detail))
        return passed

    if not record("base rings agree", s1.ring == s2.ring,
                  f"{s1.ring.tag} vs {s2.ring.tag}"):
        return report
    if not record("ranks agree", s1.rank == s2.rank, f"{s1.rank} vs {s2.rank}"):
        return report
    r = s1.rank
    if not record("map shape", phi.source_dim == r and phi.target_dim == r,
                  f"{phi.source_dim} -> {phi.target_dim}"):
        return report

    try:
        phi.inverse()
        record("map is invertible", True)
    except NotInvertibleError as exc:
        record("map is invertible", False, str(exc))
        return report

    record("unit preserved", phi.apply(s1.unit) == s2.unit)
    checks = (
        ("multiplication preserved", _first_pair(
            s1, lambda i, j: phi.apply(s1.mult_col(i, j)) != s2.vec_mult(phi.cols[i], phi.cols[j]))),
        ("counit preserved", _first_label(
            s1, lambda k: s2.counit.apply(phi.cols[k]) != s1.counit.cols[k])),
        ("comultiplication preserved", _first_label(
            s1, lambda k: s2.comul.apply(phi.cols[k]) != tensor_apply(phi, phi, s1.comul.cols[k]))),
        ("antipode preserved", _first_label(
            s1, lambda k: s2.antipode.apply(phi.cols[k]) != phi.apply(s1.antipode.cols[k]))),
    )
    for name, offender in checks:
        record(name, offender is None, offender)
    return report


# ---------------------------------------------------------------------------
# Hopf ideal quotients


def hopf_quotient(h: HopfPresentation, ideal_gens: list[AlgebraElement]) -> HopfPresentation:
    """Quotient by the ideal generated by a subset of the algebra generators.

    The generators must span a Hopf ideal (counit kills it, antipode and
    comultiplication preserve it) and the quotient module must stay free
    over the base ring; both conditions are verified, not assumed.
    """
    A = h.algebra
    gens = []
    for g in ideal_gens:
        if not isinstance(g, AlgebraElement) or g.algebra != A:
            raise ParentMismatchError("ideal generators must lie in the presented algebra")
        if not g.is_zero():
            gens.append(g)
    if not gens:
        return h

    killed = set()
    for g in gens:
        exps, c = next(iter(g.coeffs.items())) if len(g.coeffs) == 1 else (None, None)
        if exps is None or sum(exps) != 1 or not c.is_unit():
            raise UnsupportedParametersError(
                "quotient presentations are computed for ideals generated by algebra generators"
            )
        killed.add(exps.index(1))

    basis = [A.monomial(e) for e in A.iter_basis()]
    ideal_cols = [(m * g).vec() for g in gens for m in basis]

    # Hopf ideal conditions, checked on generators (they propagate to the
    # full ideal because every structure map is an algebra map).
    for g in gens:
        if not h.counit_of(g).is_zero():
            raise NotAHopfIdealError(f"counit does not vanish on {g}")
    ideal = row_reduce(ideal_cols)
    for g in gens:
        if not in_span(ideal, h.antipode_of(g).vec()):
            raise NotAHopfIdealError(f"antipode image of {g} leaves the ideal")
    r = A.rank
    side_cols = []
    for _, row in ideal:
        for m in range(r):
            side_cols.append(_outer(row, basis[m].vec(), r))
            side_cols.append(_outer(basis[m].vec(), row, r))
    side = row_reduce(side_cols)
    for g in gens:
        if not in_span(side, h.comul_of(g).vec()):
            raise NotAHopfIdealError(
                f"comultiplication of {g} leaves ideal(x)algebra + algebra(x)ideal"
            )

    # Freeness of the quotient module.  Over the local base ring the ideal's
    # rank may drop at t = 0; the two fiber ranks agree exactly when the
    # quotient is free.
    generic_rank = len(ideal)
    if isinstance(A.ring, LocalRing):
        special_rank = len(row_reduce([_specialize(row, Fiber.SPECIAL) for _, row in ideal]))
        if special_rank != generic_rank:
            raise NotFreeQuotientError(
                "quotient module is not free: ideal has rank "
                f"{generic_rank} generically but rank {special_rank} at t = 0"
            )

    survivors = [i for i in range(len(A.gens)) if i not in killed]
    survivor_monomials = 1
    for i in survivors:
        survivor_monomials *= A.bounds[i]
    if generic_rank != A.rank - survivor_monomials:
        raise UnsupportedParametersError(
            f"quotient has rank {A.rank - generic_rank}, not the monomial-basis "
            f"rank {survivor_monomials}; no presentation of this shape exists"
        )

    def project(exps):
        return tuple(exps[i] for i in survivors)

    def substitute(elem: AlgebraElement, doubled: bool) -> dict:
        m = len(A.gens)
        out = {}
        for exps, c in elem.coeffs.items():
            halves = (exps[:m], exps[m:]) if doubled else (exps,)
            if any(e[i] for e in halves for i in killed):
                continue
            new = tuple(v for half in halves for v in project(half))
            _acc(out, new, c)
        return out

    B = MonomialQuotientAlgebra(
        A.ring,
        tuple(A.gens[i] for i in survivors),
        tuple(A.bounds[i] for i in survivors),
        [substitute(AlgebraElement(A, dict(A.rules[i])), False) for i in survivors],
    )
    sq = B.tensor(B)
    return hopf_presentation(
        B,
        [AlgebraElement(sq, substitute(h.comul_images[i], True)) for i in survivors],
        [h.counit_scalars[i] for i in survivors],
        [AlgebraElement(B, substitute(h.antipode_images[i], False)) for i in survivors],
    )


# ---------------------------------------------------------------------------
# standard exhibited identifications


def product_hopf(h1: HopfPresentation, h2: HopfPresentation) -> HopfPresentation:
    """Hopf structure on the tensor product (the product group scheme)."""
    A1, A2 = h1.algebra, h2.algebra
    T = A1.tensor(A2)
    TT = T.tensor(T)
    m, n = len(A1.gens), len(A2.gens)

    def embed_square(elem: AlgebraElement, left: bool) -> AlgebraElement:
        half = m if left else n
        out = {}
        for exps, c in elem.coeffs.items():
            a, b = exps[:half], exps[half:]
            if left:
                new = a + (0,) * n + b + (0,) * n
            else:
                new = (0,) * m + a + (0,) * m + b
            out[new] = c
        return AlgebraElement(TT, out)

    def embed(elem: AlgebraElement, left: bool) -> AlgebraElement:
        out = {}
        for exps, c in elem.coeffs.items():
            new = exps + (0,) * n if left else (0,) * m + exps
            out[new] = c
        return AlgebraElement(T, out)

    return hopf_presentation(
        T,
        [embed_square(im, True) for im in h1.comul_images]
        + [embed_square(im, False) for im in h2.comul_images],
        list(h1.counit_scalars) + list(h2.counit_scalars),
        [embed(im, True) for im in h1.antipode_images]
        + [embed(im, False) for im in h2.antipode_images],
    )


def alpha_product(p: int, fiber: Fiber) -> HopfPresentation:
    alpha = catalog_build("alpha_p", p, 1, fiber).hopf
    return product_hopf(alpha, alpha)


def iso_special_to_alpha_product(h_special: HopfPresentation):
    """Map exhibiting the t = 0 fiber as a product of two additive kernels."""
    p = h_special.algebra.ring.p
    target = alpha_product(p, Fiber.SPECIAL)
    phi = algebra_hom(
        h_special.algebra, target.algebra, [target.algebra.gen(0), target.algebra.gen(1)]
    )
    return target, phi


def generic_grouplike(h_generic: HopfPresentation) -> AlgebraElement:
    """The element 1 + t*y of the generic fiber."""
    A = h_generic.algebra
    return A.one() + A.gen(1) * A.ring.t()


def iso_mu_to_generic(h_generic: HopfPresentation):
    """Map exhibiting the generic fiber as multiplicative of order p^2."""
    p = h_generic.algebra.ring.p
    mu = catalog_build("mu", p, 2, Fiber.GENERIC).hopf
    phi = algebra_hom(mu.algebra, h_generic.algebra, [generic_grouplike(h_generic)])
    return mu, phi


def grouplike_power_matrix(h_generic: HopfPresentation) -> LinearMap:
    """Columns are the powers (1 + t*y)^j, j < p^2, in the monomial basis."""
    A = h_generic.algebra
    g = generic_grouplike(h_generic)
    cols = []
    power = A.one()
    for _ in range(A.rank):
        cols.append(power.vec())
        power = power * g
    return LinearMap(A.ring, A.rank, A.rank, cols)


def iso_constant_to_dual_generic(h_generic: HopfPresentation):
    """Map exhibiting the Cartier dual of the generic fiber as constant cyclic.

    The point idempotent d_j goes to the functional dual to (1 + t*y)^j;
    the power family is certified to be a basis by inverting its matrix.
    """
    p = h_generic.algebra.ring.p
    dual = cartier_dual(h_generic)
    const = catalog_build("constant_cyclic", p, 2, Fiber.GENERIC).hopf
    b = grouplike_power_matrix(h_generic)
    phi = b.inverse().transpose()
    return const, dual, phi


def iso_alpha_product_to_dual_special(h_special: HopfPresentation):
    """Self-duality of the special fiber, normalized factorially.

    The monomial x^a y^b of the product of additive kernels goes to
    a!/b!-scaled dual functional (x^a y^b)*; scaling by a!*b! makes the
    map multiplicative on the divided-power dual.
    """
    p = h_special.algebra.ring.p
    ring = h_special.algebra.ring
    dual = cartier_dual(h_special)
    product = alpha_product(p, Fiber.SPECIAL)
    if product.algebra.bounds != h_special.algebra.bounds:
        raise AssertionError("basis alignment lost")
    cols = []
    for a in range(p):
        for b in range(p):
            c = ring.from_int(math.factorial(a) * math.factorial(b))
            cols.append({a * p + b: c})
    phi = LinearMap(ring, p * p, p * p, cols)
    return product, dual, phi


def alpha_self_duality(p: int, fiber: Fiber):
    """alpha_p -> its own dual, x^a -> a!*(x^a)*."""
    entry = catalog_build("alpha_p", p, 1, fiber)
    dual = cartier_dual(entry.hopf)
    ring = as_structure(entry.hopf).ring
    cols = [{a: ring.from_int(math.factorial(a))} for a in range(p)]
    return entry.hopf, dual, LinearMap(ring, p, p, cols)


def iso_mu_to_dual_constant(p: int, k: int, fiber: Fiber):
    """mu_q -> dual of the constant cyclic scheme: z^j -> (d_j)*."""
    mu = catalog_build("mu", p, k, fiber).hopf
    const = catalog_build("constant_cyclic", p, k, fiber).hopf
    dual = cartier_dual(const)
    ring = as_structure(mu).ring
    return mu, dual, LinearMap.identity(ring, p**k)


def double_dual_report(h) -> IsoReport:
    """Canonical evaluation map into the double dual, as an identity matrix."""
    s = as_structure(h)
    dd = cartier_dual(cartier_dual(s))
    return exhibit_isomorphism(s, dd, LinearMap.identity(s.ring, s.rank))


# ---------------------------------------------------------------------------
# serialization


def presentation_to_json(h: HopfPresentation) -> dict:
    """Stable-field-order JSON payload for a presented Hopf algebra."""
    A = h.algebra
    return {
        "schema": 1,
        "ring": A.ring.tag,
        "p": A.ring.p,
        "generators": list(A.gens),
        "bounds": list(A.bounds),
        "rules": {
            g: str(AlgebraElement(A, dict(rule))) for g, rule in zip(A.gens, A.rules)
        },
        "comultiplication": {g: str(im) for g, im in zip(A.gens, h.comul_images)},
        "counit": {g: str(c) for g, c in zip(A.gens, h.counit_scalars)},
        "antipode": {g: str(im) for g, im in zip(A.gens, h.antipode_images)},
    }
