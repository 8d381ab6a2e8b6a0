"""Hopf algebra structures, their mechanical verification, and Cartier duality.

Two carriers are used.  A HopfPresentation pins the structure maps by
generator images on a MonomialQuotientAlgebra; a HopfAlgebra carries raw
structure tensors on an explicit basis (the form in which duals arrive).
Every checker works on the tensor form, so both carriers are accepted
everywhere.  Each checked identity is one comparison of two composites
built from a small set of kernels: LinearMap.apply, the products
HopfAlgebra.vec_mult (in H) and square_mult (in H(x)H), the outer
product _outer, the sum _sum, and the one-sided tensor maps
tensor_apply_left (f (x) id) and tensor_apply_right (id (x) g) of the
algebra module.  The first offender of each identity is found by
_first_label (over basis elements) or _first_pair (over basis pairs i <= j).

A finite Hopf algebra H and its Cartier transpose (_transpose: mult <->
comul, unit <-> counit, S -> S^T) satisfy the same laws, and two of the
identities checked here are their own transposes: the bialgebra law
Delta o m = (m (x) m)(1 (x) tau (x) 1)(Delta (x) Delta) and the antipode
identities.  A matrix identity holds over any ring exactly when its
transpose does.  The pair scan of _first_pair (i <= j) is complete only on
a commutative side, and the transpose is commutative exactly when the
checked structure is cocommutative; a structure that is not, like
functions on a nonabelian group, is checked on its own side.

verify_axioms places each identity by one rule: on the generators of a
presentation; else, for the two self-transposed laws of a cocommutative
structure whose comultiplication is the denser tensor, on the transpose
(_sparser_transpose); else by the basis scan.  A law that fails on the
generators or on the transpose is scanned on the checked structure itself
for its first offender.

On a presentation the identities of algebra maps are decided on its
generators g (Waterhouse, Introduction to Affine Group Schemes, ch. 1-2).
HopfPresentation.structure tabulates the product from normal forms, which
is associative and commutative with unit 1 because each relation rewrites
a pure power g_i^(b_i) and the relations form no cycle, so the leading
terms are pairwise coprime; Delta, eps and S come from algebra_hom, which
checks the relations.  The structure carries the basis indices of the g
(HopfAlgebra.generators, read by _generators, through source on a residue
structure).  The elements on which two algebra maps agree form a
subalgebra, and so, in an associative algebra, do the a for which a
multiplicativity law holds at (a, e_j) for every j; a subalgebra that
holds every g is everything.  So verify_axioms and exhibit_isomorphism
check such an identity on the generator columns, or on the pairs (g, e_j),
once the premises that make both sides algebra maps have passed.  An
identity that fails on the generators, and every identity of a raw
HopfAlgebra, takes the basis scan, whose report and first offender are
therefore the ones given.

A structure leaves its ring for int residues by one conversion (_at_one),
which checked_structure applies once; a caller that checks a structure
twice passes the result down.  Over F_p the residues are copied.  Over
F_p[t]_(t) or F_p(t) each constant is read as c*t^k and taken at t = 1.
When every k is 0 the structure is t-free, and base change along the
injection F_p -> R preserves and reflects every identity (Waterhouse,
Introduction to Affine Group Schemes, ch. 1-2).  Otherwise the constants
must be homogeneous under one grading, as the deformation's are with
deg y = 1, deg x = p + 1 and deg t = -1 (the Rees picture of Sekiguchi,
Oort and Suwa, Ann. Sci. ENS 22, 1989); grading finds such degrees from
the tensors alone.  Every identity compared is then an equality of two
degree-0 maps, whose entries at each output index are (a sum of F_p
constants)*t^k with the same k on both sides, so it holds over the ring
exactly when it holds at t = 1.  A structure with a constant that is not a
monomial, or whose degrees conflict, is checked over its ring.  On a
residue structure (a HopfAlgebra over F_p with modulus p on each
LinearMap; phi of exhibit_isomorphism likewise) each kernel runs the same
one loop: it adds every product without testing it for zero, and _nonzero
drops the zero sums once per output vector, reducing them mod p first.
The identity list, the reports and the first offenders are the same on
both.

The central object built here is the order-p^2 deformation
R[x,y]/(x^p, y^p - t*x) over F_p[t] localized at (t), whose special
fiber is a product of two infinitesimal additive kernels and whose
generic fiber is multiplicative of order p^2.
"""

from __future__ import annotations

import itertools
import math
import operator

from .algebra import (
    AlgebraElement,
    LinearMap,
    MonomialQuotientAlgebra,
    _acc,
    _nonzero,
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
from .rings import (
    Fiber,
    FunctionField,
    LocalRing,
    Prime,
    PrimeField,
    specialize_scalar,
)


# ---------------------------------------------------------------------------
# carriers


class HopfAlgebra:
    """Hopf algebra given by structure tensors on an explicit basis.

    mult: H(x)H -> H, comul: H -> H(x)H, counit: H -> R, antipode: H -> H,
    all as sparse-column linear maps; unit is the coefficient vector of 1.
    Tensor indices follow the left-most-significant convention i*rank + j.
    A residue structure (the one conversion, _at_one) is over F_p, holds
    int residues in [1, p) in maps of modulus p, and has as source the
    structure it was made from; the transpose of one (_transpose) holds
    the same residues with source None, and every other structure has
    modulus and source None.  A residue structure read with some constant
    c*t^k, k != 0, also holds the grading of its source in degrees; every
    other structure has degrees None.  The tensor form of a presentation
    (HopfPresentation.structure) holds the basis indices of its algebra
    generators in generators; every other structure has generators None,
    and the tag of a residue structure is read off its source
    (_generators).  The products vec_mult and
    square_mult run the same loop on both and drop zeros once per result
    (_nonzero).
    """

    __slots__ = ("ring", "labels", "mult", "unit", "comul", "counit", "antipode", "_by_left",
                 "source", "degrees", "generators")

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
        self.source = None
        self.degrees = None
        self.generators = None
        # _by_left[i][j] is the product column of e_i*e_j, for the nonempty ones.
        self._by_left = [{} for _ in range(r)]
        for ij, col in enumerate(mult.cols):
            if col:
                i, j = divmod(ij, r)
                self._by_left[i][j] = col

    @property
    def rank(self) -> int:
        return len(self.labels)

    @property
    def modulus(self) -> int | None:
        """p on a residue structure, None on a structure of ring elements."""
        return self.mult.modulus

    def mult_col(self, i: int, j: int) -> dict:
        return self.mult.cols[i * self.rank + j]

    def vec_mult(self, u: dict, v: dict) -> dict:
        out: dict = {}
        get = out.get
        for i, a in u.items():
            for b, col in _nonempty_products(self._by_left[i], v):
                c = a * b
                for k, m in col.items():
                    out[k] = c * m if (cur := get(k)) is None else cur + c * m
        return _nonzero(out, self.mult.modulus)

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
        get = out.get
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
                        kl = base + t2
                        out[kl] = cc1 * c2 if (cur := get(kl)) is None else cur + cc1 * c2
        return _nonzero(out, self.mult.modulus)

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


def _outer(u: dict, v: dict, r: int, p: int | None = None) -> dict:
    """u (x) v over the product index i*r + j; p is the modulus of int residues."""
    return _nonzero({i * r + j: a * b for i, a in u.items() for j, b in v.items()}, p)


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
        """The tensor form on the monomial basis, built once.

        The product of two basis monomials g^a and g^b is the normal form
        of g^(a+b) (MonomialQuotientAlgebra._reduce), so each column of the
        multiplication is read off the normal form with no ring product.
        That product is associative and commutative with unit 1: each rule
        rewrites a pure power g_i^(b_i), and the rules form no cycle
        (MonomialQuotientAlgebra checks this), so under a lex order the
        g_i^(b_i) are the leading terms; they are pairwise coprime, so the
        rules are a Groebner basis of the ideal they generate.  Delta, eps
        and S come from algebra_hom, which checks the relations.  The
        structure is tagged with the basis indices of the generators
        (HopfAlgebra.generators), on which verify_axioms and
        exhibit_isomorphism decide the identities of algebra maps.
        """
        if self._structure is None:
            A = self.algebra
            basis = list(A.iter_basis())
            index, normal_form = A.index, A._reduce
            cols = [{index(e): c for e, c in normal_form(tuple(map(operator.add, a, b))).items()}
                    for a in basis for b in basis]
            mult = LinearMap(A.ring, A.rank * A.rank, A.rank, cols)
            labels = tuple(A.monomial_str(e) for e in basis)
            s = HopfAlgebra(A.ring, labels, mult, A.one().vec(), self.comul, self.counit,
                            self.antipode)
            n = len(A.gens)
            s.generators = tuple(index([int(j == i) for j in range(n)]) for i in range(n))
            self._structure = s
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
    The identities run on int residues when the one conversion exists
    (checked_structure, _at_one), with the comparisons, the report and the
    first offenders of the ring check and no fallback.  A structure that is
    not homogeneous, like corrupt-antipode's, is checked over its ring.

    Each identity is placed by one rule (module docstring): on the
    generators of a presentation, else on the sparser side, else by the
    basis scan; one that fails on the generators or on the transpose is
    scanned on s for its first offender.

    On a presentation (_generators) the product is associative with unit
    1, so the a with a law at (a, e_j) for every j form a subalgebra:
    commutativity, "counit is an algebra map" and the bialgebra law are
    checked on the pairs (g, e_j) for the generators g.  Coassociativity, the
    counit identities and the antipode identities each compare two algebra
    maps, which agree on a subalgebra, so they are checked on the generator
    columns once their premises have passed: the bialgebra law for
    coassociativity; it and "counit is an algebra map" for the counit
    identities; those, commutativity, S(1) = 1 and S(g e_j) = S(g) S(e_j)
    for every g and e_j (so S is an algebra map) for the antipode.

    A structure without generators decides the bialgebra law on pairs,
    Delta(e_i e_j) = Delta(e_i) Delta(e_j), and the antipode identities,
    each its own Cartier transpose, on _transpose(s) when that side is
    sparser (_sparser_transpose).  The transpose's multiplication is
    Delta^T, so it is taken only for a cocommutative s.
    """
    s = checked_structure(h)
    r, p = s.rank, s.modulus
    m, unit, d, eps = s.mult_col, s.unit, s.comul.cols, s.counit.cols
    one = s.ring.one() if p is None else 1
    gens = _generators(s)
    report = AxiomReport()

    def record(name, offender, required=True):
        report.checks.append(AxiomCheck(name, offender is None, required, offender))
        return offender is None

    def given(*premises):
        """gens when every premise holds, else None: the basis scan."""
        return gens if all(premises) else None

    flip_asymmetric_at = _first_label(s, lambda k: _is_flip_asymmetric(d[k], r))
    transposed = (_sparser_transpose(s) if gens is None and flip_asymmetric_at is None
                  else None)

    def on_sparser_side(offender, gens):
        """offender(s, gens), or, with no generators, offender decided on
        the transpose first when that side is sparser, and on s only for
        the first offender."""
        if transposed is None:
            return offender(s, gens)
        return None if offender(transposed) is None else offender(s)

    commutative = record("multiplication is commutative",
                         _first_pair(s, lambda i, j: m(i, j) != m(j, i), gens))
    bialgebra = record("comultiplication is an algebra map",
                       "1" if s.comul.apply(unit) != _outer(unit, unit, r, p) else
                       on_sparser_side(_comul_multiplicative_at, gens))
    counit_multiplicative = record(
        "counit is an algebra map",
        "1" if s.counit.apply(unit) != {0: one} else
        _first_pair(s, lambda i, j: s.counit.apply(m(i, j)) != _outer(eps[i], eps[j], 1, p), gens))
    record("comultiplication is coassociative", _first_label(
        s, lambda k: tensor_apply_left(s.comul, r, d[k]) != tensor_apply_right(s.comul, d[k]),
        given(bialgebra)))
    record("counit identities hold", _first_label(
        s, lambda k: tensor_apply_left(s.counit, r, d[k]) != {k: one}
        or tensor_apply_right(s.counit, d[k]) != {k: one},
        given(bialgebra, counit_multiplicative)))
    # The two antipode composites are algebra maps once S is one.
    antipode_gens = given(commutative, bialgebra, counit_multiplicative)
    if antipode_gens is not None and not _antipode_multiplicative(s, antipode_gens):
        antipode_gens = None
    record("antipode identities hold", on_sparser_side(_antipode_at, antipode_gens))
    record("comultiplication is cocommutative", flip_asymmetric_at, required=False)
    return report


def _generators(s: HopfAlgebra) -> tuple | None:
    """The basis indices of the generators of the presentation whose tensor
    form s is, or whose tensor form s holds the residues of (source); None
    for every other structure, and the checks then scan the basis."""
    return (s.source or s).generators


def _sparser_transpose(s: HopfAlgebra) -> HopfAlgebra | None:
    """_transpose(s) when the comultiplication of s has more nonzero
    constants than its multiplication, else None.  The transpose's
    comultiplication is m^T, so this picks the side whose comultiplication
    is sparser: the pair scan multiplies comultiplication columns
    (square_mult) and the antipode scan multiplies their factors, so that
    side is the cheaper one.  verify_axioms asks only for a structure
    without generators; of the CLI's structures that is the constant cyclic
    scheme, which it transposes."""
    def nonzeros(m):
        return sum(map(len, m.cols))
    return _transpose(s) if nonzeros(s.comul) > nonzeros(s.mult) else None


def _comul_multiplicative_at(s: HopfAlgebra, gens: tuple | None = None) -> str | None:
    """The first pair i <= j with Delta(e_i e_j) != Delta(e_i) Delta(e_j),
    decided on the pairs (g, e_j) of the generators gens first when given."""
    m, d = s.mult_col, s.comul.cols
    return _first_pair(s, lambda i, j: s.comul.apply(m(i, j)) != s.square_mult(d[i], d[j]), gens)


def _antipode_multiplicative(s: HopfAlgebra, gens: tuple) -> bool:
    """Whether S(1) = 1 and S(g e_j) = S(g) S(e_j) for every generator g in
    gens and every e_j: then S is an algebra map, as the g generate H."""
    S, unit = s.antipode, s.unit
    return S.apply(unit) == unit and not any(
        S.apply(s.mult_col(g, j)) != s.vec_mult(S.cols[g], S.cols[j])
        for g in gens for j in range(s.rank))


def _antipode_at(s: HopfAlgebra, gens: tuple | None = None) -> str | None:
    """The first e_k on which m(S (x) id)Delta or m(id (x) S)Delta differs
    from u(eps(e_k)), decided on the generator columns gens first when
    given."""
    r, p, unit = s.rank, s.modulus, s.unit
    d, eps, S = s.comul.cols, s.counit.cols, s.antipode.cols

    def differs(k):
        # m(S (x) id) and m(id (x) S) on comul(e_k) = sum e_i (x) a_i = sum b_j (x) e_j
        rows, cols = _factor_groups(d[k], r)
        expected = _outer(eps[k], unit, r, p)
        return (_sum((s.vec_mult(S[i], a) for i, a in rows.items()), p) != expected
                or _sum((s.vec_mult(b, S[j]) for j, b in cols.items()), p) != expected)

    return _first_label(s, differs, gens)


def checked_structure(h) -> HopfAlgebra:
    """The structure verify_axioms and exhibit_isomorphism check for h: its
    one conversion to int residues (_at_one), or as_structure(h) where h
    stays on its ring.  A caller that checks h more than once passes this
    in place of h, so that h is converted once."""
    s = as_structure(h)
    return (_at_one((s,)) or (s,))[0]


# ---------------------------------------------------------------------------
# the one conversion to residues: checks at t = 1


def grading(h) -> list[int] | None:
    """Integer degrees d on the basis of h under which every structure
    constant is homogeneous, read off the structure tensors alone by the
    one conversion (_at_one).

    Over F_p[t]_(t) or F_p(t), with deg t = -1, a nonzero constant c*t^k
    from a source index to a target index forces k = d(target) - d(source):
    the indices of H(x)H add (d(e_i (x) e_j) = d_i + d_j), and the unit 1
    and the base ring's 1 (the target of the counit) sit in degree 0.  The
    deformation has d(x^a y^b) = a*(p + 1) + b; its Cartier dual has the
    negated degrees.  Degrees that no constant fixes are 0.  None where h
    stays on its ring, when every k is 0 (a t-free structure), and over
    F_p.  h may be given as checked_structure gives it.
    """
    degrees = checked_structure(h).degrees
    return None if degrees is None else list(degrees)


def _at_one(sides: tuple, phi: LinearMap | None = None) -> tuple | None:
    """The one conversion to int residues: the structures sides, and phi
    from the first of them to the second, read together over the ring of
    the first (of its source, for a residue structure); None where they
    stay on their ring.

    Over F_p every scalar is copied as its residue.  Over F_p[t]_(t) or
    F_p(t) every constant c*t^k is read (_Grading) and taken as c, its
    value at t = 1, which the checkers compare in its place (module
    docstring): the residue structures have degrees None when every k is
    0, and otherwise the grading under which every constant is homogeneous.
    None at the first constant that is not a monomial or that conflicts,
    and over any other ring.

    The result holds the residue structure of each side, with source the
    side, and then phi on residues.  A side that holds residues already is
    taken as it is, with the constraints of the structure it was made
    from, and a residue structure alone is its own conversion.
    """
    s = sides[0]
    if phi is None and s.modulus is not None:
        return sides
    ring = (s.source or s).ring
    if (phi is not None and phi.ring != ring
            or not isinstance(ring, (PrimeField, FunctionField, LocalRing))):
        return None
    r = s.rank
    g = _Grading(len(sides) * r, copy=isinstance(ring, PrimeField))
    maps = []
    for n, side in enumerate(sides):
        m = g.structure(side, n * r)
        if m is None:
            return None
        maps.append(m)
    if phi is not None:
        phi_cols = g.columns(phi.cols, [(j,) for j in range(r)], [(r + i,) for i in range(r)])
        if phi_cols is None:
            return None
    degrees = g.solve()
    if degrees is False:
        return None
    field = PrimeField(ring.p)

    def at_one(m, cols):
        return LinearMap.of_residues(field, m.source_dim, m.target_dim, cols)

    out = []
    for n, (side, m) in enumerate(zip(sides, maps)):
        if side.modulus is None:
            unit, counit, antipode, comul, mult = m
            d = HopfAlgebra(field, side.labels, at_one(side.mult, mult), {},
                            at_one(side.comul, comul), at_one(side.counit, counit),
                            at_one(side.antipode, antipode))
            d.unit, d.source = unit[0], side
            d.degrees = degrees and tuple(degrees[n * r:(n + 1) * r])
            side = d
        out.append(side)
    if phi is not None:
        out.append(at_one(phi, phi_cols))
    return tuple(out)


class _Grading:
    """The reader of _at_one: each constant as c*t^k, and integer degrees on
    n unknowns fixed constant by constant.

    A constant c*t^k with source indices src and target indices tgt (tuples
    of unknowns, repeated where a basis element occurs twice) records the
    constraint sum d(tgt) - sum d(src) = k.  A constraint with one unknown
    left fixes it (it conflicts if the division is not exact); one with two
    or more waits for solve.  Constraints are recorded only from the first
    constant with k != 0 on (tilted): the columns read before it, every
    constant of degree 0, are kept in read and replayed then, so a t-free
    read forms no constraint.  copy reads over F_p, where every constant is
    c*t^0, by copying residues.
    """

    __slots__ = ("deg", "waiting", "read", "copy")

    def __init__(self, n: int, copy: bool = False):
        self.deg = [None] * n
        self.waiting = []
        self.read = []
        self.copy = copy

    def _settle(self, terms: tuple, k: int, waiting: list) -> bool:
        """Record terms . d = k: True when it holds, fixes its one unknown,
        or joins waiting with two or more unknowns left; False on a
        conflict."""
        deg = self.deg
        left, unknown = k, None
        for v, a in terms:
            dv = deg[v]
            if dv is not None:
                left -= a * dv
            elif unknown is None:
                unknown = v, a
            else:
                waiting.append((terms, k))
                return True
        if unknown is None:
            return left == 0
        v, a = unknown
        q, rem = divmod(left, a)
        if rem:
            return False
        deg[v] = q
        return True

    def _degree_zero(self, parts) -> bool:
        """Take every constant of parts, (columns, sources, targets) as in
        columns, at k = 0: kept in read until the grading tilts, recorded
        after that; False on a conflict."""
        if self.read is not None:
            self.read.extend(parts)
            return True
        return all(self._settle(_net_terms(targets[i], src), 0, self.waiting)
                   for cols, sources, targets in parts
                   for src, col in zip(sources, cols) for i in col)

    def columns(self, cols, sources, targets) -> list | None:
        """cols at t = 1, each constant c*t^k as the residue c, its
        constraint recorded once tilted; None at the first constant that is
        not a monomial or that conflicts.  sources[j] and targets[i] are the
        unknowns of column j and row i."""
        if self.copy:
            return [{i: c.residue for i, c in col.items()} for col in cols]
        out = []
        # Until the grading tilts, what is read here is kept for the replay.
        self._degree_zero([(out, sources, targets)])
        for src, col in zip(sources, cols):
            at_one = {}
            out.append(at_one)
            for i, c in col.items():
                num, den = c.num.coeffs, c.den.coeffs
                if any(num[:-1]) or any(den[:-1]):
                    return None
                k = len(num) - len(den)
                if k or self.read is None:
                    if self.read is not None:
                        # The first constraint: what was read before it, all
                        # of degree 0 on no fixed degree, cannot conflict.
                        read, self.read = self.read, None
                        self._degree_zero(read)
                    if not self._settle(_net_terms(targets[i], src), k, self.waiting):
                        return None
                at_one[i] = num[-1]
        return out

    def structure(self, s: HopfAlgebra, o: int) -> list | None:
        """The columns of the unit, counit, antipode, comultiplication and
        multiplication of s at t = 1, in that order (a stray term like
        corrupt-antipode's is met early), its basis taken as the unknowns
        o, ..., o + rank - 1; None as in columns.  A residue structure s is
        read for its constraints alone (empty list): those of its source
        when it holds degrees, else its own at k = 0."""
        if s.modulus is not None and s.degrees is not None:
            return self.structure(s.source, o) and []
        basis = range(o, o + s.rank)
        ones = [(v,) for v in basis]
        pairs = list(itertools.product(basis, repeat=2))
        parts = (([s.unit], [()], ones), (s.counit.cols, ones, [()]),
                 (s.antipode.cols, ones, ones), (s.comul.cols, ones, pairs),
                 (s.mult.cols, pairs, ones))
        if s.modulus is not None:
            return [] if self._degree_zero(parts) else None
        out = []
        for part in parts:
            cols = self.columns(*part)
            if cols is None:
                return None
            out.append(cols)
        return out

    def solve(self) -> list[int] | bool | None:
        """Degrees meeting every recorded constraint: None when no constant
        has k != 0, False on a conflict.  When every waiting constraint has
        two unknowns left, the first of them is fixed at 0; unknowns no
        constraint reaches are 0."""
        if self.read is not None:
            return None
        deg, waiting = self.deg, self.waiting
        while waiting:
            left = []
            if not all(self._settle(terms, k, left) for terms, k in waiting):
                return False
            if len(left) == len(waiting):
                deg[next(v for v, _ in left[0][0] if deg[v] is None)] = 0
            waiting = left
        return [0 if d is None else d for d in deg]


def _net_terms(target: tuple, source: tuple) -> tuple:
    """((unknown, coefficient), ...) of sum d(target) - sum d(source), zero
    coefficients dropped."""
    acc: dict = {}
    for v in target:
        acc[v] = acc.get(v, 0) + 1
    for v in source:
        acc[v] = acc.get(v, 0) - 1
    return tuple((v, a) for v, a in acc.items() if a)


def _first_label(s: HopfAlgebra, differs, gens: tuple | None = None) -> str | None:
    """Label of the first basis element k with differs(k), or None.

    With generators gens (basis indices), None when differs(g) holds for
    no g in gens, and the scan otherwise: the caller passes gens only for
    an identity of two algebra maps, which the generators decide.
    """
    if gens is not None and not any(map(differs, gens)):
        return None
    return next((s.labels[k] for k in range(s.rank) if differs(k)), None)


def _first_pair(s: HopfAlgebra, differs, gens: tuple | None = None) -> str | None:
    """Labels of the first basis pair i <= j with differs(i, j), or None.

    The scan covers every pair only for an identity symmetric in i and j,
    as the pair identities are on a commutative side: verify_axioms checks
    the commutativity of s, and transposes s only when it is cocommutative.
    With generators gens, None when differs(g, j) holds for no g in gens
    and no j, and the scan otherwise: the caller passes gens only for a law
    whose solutions a, those with the law at (a, e_j) for every j, form a
    subalgebra of the associative algebra s, so the generators decide it.
    """
    r = s.rank
    if gens is not None and not any(differs(g, j) for g in gens for j in range(r)):
        return None
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


def _sum(vecs, p: int | None = None) -> dict:
    """Sum of sparse vectors; p is the modulus of int residues."""
    out: dict = {}
    get = out.get
    for v in vecs:
        for i, c in v.items():
            out[i] = c if (cur := get(i)) is None else cur + c
    return _nonzero(out, p)


# ---------------------------------------------------------------------------
# the deformation and its fibers

MUTATIONS = {
    "drop-comul-t-term": "omit the degree-two term of the comultiplication of y",
    "drop-comul-x-term": "omit the degree-two term of the comultiplication of x",
    "corrupt-antipode": "add a stray x to the antipode image of y",
}


def deformation_hopf(p: int, mutation: str | None = None) -> HopfPresentation:
    """The rank-p^2 Hopf algebra R[x,y]/(x^p, y^p - t*x) over F_p[t]_(t).

    Comultiplication sends y to 1(x)y + y(x)1 + t*y(x)y.  The image of x is
    forced: y^p = t*x and H(x)H has no t-torsion, so it is computed as
    Delta(y)^p / t = 1(x)x + x(x)1 + t^(p+1)*x(x)x, and the division by t
    raises NonUnitError unless t divides.  At t = 0
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
    dy = sq.pure_tensor(one, y) + sq.pure_tensor(y, one) + sq.pure_tensor(y, y) * t
    dx = AlgebraElement(sq, {e: c / t for e, c in (dy**p).coeffs.items()})
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
    """A verified catalog object.  checked is the structure its verification
    ran on (checked_structure); the checkers take it in place of hopf, so
    the entry is not converted again."""

    __slots__ = ("name", "p", "k", "fiber", "hopf", "checked")

    def __init__(self, name: str, p: int, k: int, fiber: Fiber, hopf: object,
                 checked: object = None):
        self.name = name
        self.p = p
        self.k = k
        self.fiber = fiber
        self.hopf = hopf  # HopfPresentation or HopfAlgebra
        self.checked = hopf if checked is None else checked

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
    checked = checked_structure(h)
    report = verify_axioms(checked)
    if not report.ok:
        raise AssertionError(f"catalog entry {name} failed verification: {report.summary()}")
    return CatalogEntry(name, p, k, fiber, h, checked)


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
    return _transpose(s)


def _transpose(s: HopfAlgebra) -> HopfAlgebra:
    """The plain transpose of s on the dual basis: mult <-> comul,
    unit <-> counit, S -> S^T.  Nothing is checked.  The transpose of a
    residue structure holds the same int residues (modulus p, source and
    degrees None)."""
    unit_row = (LinearMap(s.ring, 1, s.rank, [s.unit]) if s.modulus is None
                else LinearMap.of_residues(s.ring, 1, s.rank, [s.unit]))
    out = HopfAlgebra(s.ring, tuple(_dual_label(l) for l in s.labels), s.comul.transpose(),
                      {}, s.mult.transpose(), unit_row.transpose(), s.antipode.transpose())
    out.unit = s.counit.transpose().cols[0]
    return out


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
    structure-compatibility identity is checked mechanically.  h1 and h2
    may be given as checked_structure gives them; the ring, rank and map
    checks then read the structures they were made from.  The
    compatibility identities run on int residues when the one conversion
    (_at_one) reads h1, h2 and phi together: over F_p, t-free, or under one
    grading of the three with phi of degree 0.  The report is the one of
    the ring check.  The invertibility of phi is always decided over the
    caller's ring.

    Between two presentations (_generators; module docstring), once
    phi(1) = 1, "multiplication preserved" is checked on the pairs
    (g, e_j) for the generators g of h1: the a with phi(a e_j) =
    phi(a) phi(e_j) for every j form a subalgebra.  Once it holds, phi is an
    algebra map, and so are both sides of the counit, comultiplication and
    antipode checks (the eps, Delta and S of each side come from
    algebra_hom), which are then checked on the generator columns.  A check
    that fails there is scanned over the basis for its first offender.
    """
    s1, s2 = as_structure(h1), as_structure(h2)
    # A residue structure stands for the structure it was made from.
    o1, o2 = s1.source or s1, s2.source or s2
    report = IsoReport()

    def record(name, passed, detail=None):
        report.checks.append(IsoCheck(name, passed, None if passed else detail))
        return passed

    if not record("base rings agree", o1.ring == o2.ring,
                  f"{o1.ring.tag} vs {o2.ring.tag}"):
        return report
    if not record("ranks agree", o1.rank == o2.rank, f"{o1.rank} vs {o2.rank}"):
        return report
    r = o1.rank
    if not record("map shape", phi.source_dim == r and phi.target_dim == r,
                  f"{phi.source_dim} -> {phi.target_dim}"):
        return report

    try:
        phi.inverse()
        record("map is invertible", True)
    except NotInvertibleError as exc:
        record("map is invertible", False, str(exc))
        return report

    # Convert only now: the ring check and the invertibility detail above
    # name the rings the caller passed.
    s1, s2, phi = _at_one((s1, s2), phi) or (o1, o2, phi)
    # Between two presentations the identities of algebra maps are decided
    # on the generators of s1 once phi is an algebra map.
    gens = _generators(s1) if _generators(s2) is not None else None
    if not record("unit preserved", phi.apply(s1.unit) == s2.unit):
        gens = None
    offender = _first_pair(
        s1, lambda i, j: phi.apply(s1.mult_col(i, j)) != s2.vec_mult(phi.cols[i], phi.cols[j]),
        gens)
    if not record("multiplication preserved", offender is None, offender):
        gens = None
    checks = (
        ("counit preserved", lambda k: s2.counit.apply(phi.cols[k]) != s1.counit.cols[k]),
        ("comultiplication preserved",
         lambda k: s2.comul.apply(phi.cols[k]) != tensor_apply(phi, phi, s1.comul.cols[k])),
        ("antipode preserved",
         lambda k: s2.antipode.apply(phi.cols[k]) != phi.apply(s1.antipode.cols[k])),
    )
    for name, differs in checks:
        offender = _first_label(s1, differs, gens)
        record(name, offender is None, offender)
    return report


# ---------------------------------------------------------------------------
# Hopf ideal quotients


def _unit_pivot_projection(ideal: list[tuple[int, dict]], ring, r: int) -> LinearMap | None:
    """The projection of the rank-r module onto the non-pivot basis vectors
    along the span of a row_reduce result, or None when some pivot is not a
    unit.  With unit pivots the rows are reduced with pivot 1, so e_c is
    row_c minus the rest of row_c for a pivot column c: pi(e_c) is minus
    that rest, and pi(e_j) = e_j for every other j."""
    if not all(row[col].is_unit() for col, row in ideal):
        return None
    cols = [{j: ring.one()} for j in range(r)]
    for col, row in ideal:
        cols[col] = {j: -c for j, c in row.items() if j != col}
    return LinearMap(ring, r, r, cols)


def hopf_quotient(h: HopfPresentation, ideal_gens: list[AlgebraElement]) -> HopfPresentation:
    """Quotient by the ideal generated by a subset of the algebra generators.

    The generators must span a Hopf ideal (counit kills it, antipode and
    comultiplication preserve it) and the quotient module must stay free
    over the base ring; both conditions are verified, not assumed.

    When every pivot of the ideal's echelon form is a unit, the rows are in
    reduced echelon form with pivot 1, so the ideal I is a direct summand:
    H = I (+) C with C spanned by the non-pivot basis vectors.  Then
    I(x)H + H(x)I is the kernel of pi (x) pi for the projection pi of H onto
    C along I, which is read off the rows (_unit_pivot_projection), and the
    comultiplication test applies pi to both tensor factors of Delta(g).  The
    rows keep their unit pivots at t = 0, so the quotient is free.  When some
    pivot is not a unit (over F_p[t]_(t), as for (y) in the deformation,
    where t*x lies in the ideal but x does not), the ideal need not be a
    summand: the test row-reduces the 2*|I|*rank spanning columns of
    I(x)H + H(x)I instead, and freeness is decided by comparing the ideal's
    rank at t = 0 with its generic rank.
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
    pi = _unit_pivot_projection(ideal, A.ring, r)
    if pi is None:
        side_cols = []
        for _, row in ideal:
            for m in range(r):
                side_cols.append(_outer(row, basis[m].vec(), r))
                side_cols.append(_outer(basis[m].vec(), row, r))
        side = row_reduce(side_cols)
    for g in gens:
        vec = h.comul_of(g).vec()
        if tensor_apply(pi, pi, vec) if pi is not None else not in_span(side, vec):
            raise NotAHopfIdealError(
                f"comultiplication of {g} leaves ideal(x)algebra + algebra(x)ideal"
            )

    # Freeness of the quotient module.  Over the local base ring the ideal's
    # rank may drop at t = 0; the two fiber ranks agree exactly when the
    # quotient is free.  Unit pivots stay units at t = 0.
    generic_rank = len(ideal)
    if pi is None and isinstance(A.ring, LocalRing):
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
    """Map exhibiting the generic fiber as multiplicative of order p^2.

    mu is returned as the checkers take it (CatalogEntry.checked).
    """
    p = h_generic.algebra.ring.p
    mu = catalog_build("mu", p, 2, Fiber.GENERIC)
    phi = algebra_hom(mu.hopf.algebra, h_generic.algebra, [generic_grouplike(h_generic)])
    return mu.checked, phi


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
    The constant scheme is returned as the checkers take it
    (CatalogEntry.checked).
    """
    p = h_generic.algebra.ring.p
    dual = cartier_dual(h_generic)
    const = catalog_build("constant_cyclic", p, 2, Fiber.GENERIC).checked
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


def catalog_dual(entry: CatalogEntry):
    """Cartier duality on the catalog, as (partner, dual, phi): dual is the
    Cartier dual of entry, and phi maps the partner entry onto it.

    alpha_p is its own partner, with x^a -> a!*(x^a)*.  mu_q and the
    constant cyclic scheme of order q are each other's partners, with
    z^j <-> (d_j)* the identity matrix; only the partner is built here.
    """
    dual = cartier_dual(entry.hopf)
    ring, r = dual.ring, dual.rank
    if entry.name == "alpha_p":
        cols = [{a: ring.from_int(math.factorial(a))} for a in range(r)]
        return entry, dual, LinearMap(ring, r, r, cols)
    name = {"mu": "constant_cyclic", "constant_cyclic": "mu"}[entry.name]
    partner = catalog_build(name, entry.p, entry.k, entry.fiber)
    return partner, dual, LinearMap.identity(ring, r)


def double_dual_report(h, dual: HopfAlgebra | None = None) -> IsoReport:
    """Canonical evaluation map into the double dual, as an identity matrix.

    The guard runs once: the dual's multiplication is the transpose of the
    comultiplication of h, so the dual is commutative exactly when h is
    cocommutative, and cocommutative exactly when h is commutative.  A
    residue structure h (CatalogEntry.checked) is checked as it is, and the
    double dual is built from the structure it was made from.  dual is
    cartier_dual of that structure when the caller has it already (the
    dual of catalog_dual), and is then transposed without a second guard.
    """
    s = as_structure(h)
    source = s.source or s
    dd = _transpose(cartier_dual(source) if dual is None else dual)
    return exhibit_isomorphism(s, dd, LinearMap.identity(source.ring, source.rank))


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
