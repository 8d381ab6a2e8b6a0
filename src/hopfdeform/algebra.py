"""Finite free commutative algebras presented by monomial power rules.

An algebra here is R[g_1..g_m] modulo one rule g_i^{e_i} = rhs_i per
generator, with every rhs supported on the monomial basis
{g^a : 0 <= a_i < e_i}.  Reduction to normal form repeatedly rewrites the
highest-indexed overflowing generator; admissibility (an acyclicity
condition on which generators appear in which right-hand sides) makes
that terminate.  Linear maps between such algebras are stored as sparse
columns of base-ring elements.
"""

from __future__ import annotations

import functools
import itertools
import operator

from .errors import (
    ContextMismatchError,
    DimensionMismatchError,
    InadmissiblePresentationError,
    NonUnitError,
    NotInvertibleError,
    ParentMismatchError,
    RankGuardError,
    RelationViolationError,
    UnsupportedParametersError,
)

MAX_RANK = 20000


class MonomialQuotientAlgebra:
    """Finite free R-algebra with one power rewrite rule per generator.

    Basis monomials are ordered lexicographically by exponent vector with
    generator 1 most significant; a tensor product of two algebras orders
    its basis with the left factor's exponents varying slowest.
    """

    def __init__(self, ring, gens, bounds, rules, tensor_factors=None):
        gens = tuple(gens)
        bounds = tuple(bounds)
        rules = tuple(dict(r) for r in rules)
        if not (len(gens) == len(bounds) == len(rules)):
            raise UnsupportedParametersError("generators, bounds and rules must align")
        for b in bounds:
            if not isinstance(b, int) or b < 2:
                raise UnsupportedParametersError(f"exponent bound {b!r} must be an integer >= 2")
        rank = 1
        for b in bounds:
            rank *= b
        if rank > MAX_RANK:
            raise RankGuardError(f"rank {rank} exceeds the bound {MAX_RANK}")
        self.ring = ring
        self.gens = gens
        self.bounds = bounds
        self.rules = rules
        self.rank = rank
        self.tensor_factors = tensor_factors
        self._reduce_cache: dict[tuple, dict] = {}
        # radix weights for basis indexing, generator 1 most significant
        weights = []
        w = 1
        for b in reversed(bounds):
            weights.append(w)
            w *= b
        self._weights = tuple(reversed(weights))
        self._check_rules()

    def _check_rules(self):
        m = len(self.gens)
        for i, rule in enumerate(self.rules):
            for exps, c in rule.items():
                if len(exps) != m:
                    raise InadmissiblePresentationError(
                        f"rule for {self.gens[i]} has a monomial of wrong arity"
                    )
                if any(e < 0 or e >= b for e, b in zip(exps, self.bounds)):
                    raise InadmissiblePresentationError(
                        f"rule for {self.gens[i]} is not supported on the monomial basis"
                    )
                if c.is_zero():
                    raise InadmissiblePresentationError("rules must not carry zero coefficients")
        # Termination: ignoring self-loops (which strictly drop the generator's
        # own exponent), the dependency digraph must be acyclic.
        edges = {
            i: {j for exps, _ in self.rules[i].items() for j, e in enumerate(exps) if e and j != i}
            for i in range(m)
        }
        state = [0] * m  # 0 unvisited, 1 on stack, 2 done

        def visit(i):
            state[i] = 1
            for j in edges[i]:
                if state[j] == 1:
                    raise InadmissiblePresentationError(
                        f"rewrite rules for {self.gens[i]} and {self.gens[j]} form a cycle"
                    )
                if state[j] == 0:
                    visit(j)
            state[i] = 2

        for i in range(m):
            if state[i] == 0:
                visit(i)

    # -- basis bookkeeping -------------------------------------------------

    def index(self, exps) -> int:
        return sum(e * w for e, w in zip(exps, self._weights))

    def exps_of(self, index: int):
        out = []
        for b, w in zip(self.bounds, self._weights):
            q, index = divmod(index, w)
            out.append(q)
        return tuple(out)

    def iter_basis(self):
        if not self.gens:
            yield ()
            return
        yield from itertools.product(*[range(b) for b in self.bounds])

    def monomial_str(self, exps) -> str:
        if self.tensor_factors is not None:
            left, right = self.tensor_factors
            k = len(left.gens)
            return f"{left.monomial_str(exps[:k])}⊗{right.monomial_str(exps[k:])}"
        parts = []
        for name, e in zip(self.gens, exps):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts) if parts else "1"

    # -- element constructors ---------------------------------------------

    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, {})

    def one(self) -> "AlgebraElement":
        return AlgebraElement(self, {(0,) * len(self.gens): self.ring.one()})

    def scalar(self, c) -> "AlgebraElement":
        if c.is_zero():
            return self.zero()
        return AlgebraElement(self, {(0,) * len(self.gens): c})

    def gen(self, i: int) -> "AlgebraElement":
        exps = tuple(1 if j == i else 0 for j in range(len(self.gens)))
        return AlgebraElement(self, {exps: self.ring.one()})

    def monomial(self, exps, coeff=None) -> "AlgebraElement":
        coeff = self.ring.one() if coeff is None else coeff
        out = {}
        for e, c in self._reduce(tuple(exps)).items():
            _acc(out, e, coeff * c)
        return AlgebraElement(self, out)

    def element(self, coeffs: dict) -> "AlgebraElement":
        out = {}
        for exps, c in coeffs.items():
            exps = tuple(exps)
            if any(e < 0 or e >= b for e, b in zip(exps, self.bounds)) or len(exps) != len(self.gens):
                raise UnsupportedParametersError(f"{exps} is not a basis exponent vector")
            if not c.is_zero():
                _acc(out, exps, c)
        return AlgebraElement(self, out)

    def from_vec(self, vec: dict) -> "AlgebraElement":
        return AlgebraElement(self, {self.exps_of(i): c for i, c in vec.items() if not c.is_zero()})

    # -- normal form -------------------------------------------------------

    def _reduce(self, exps: tuple) -> dict:
        """Normal form of the pure monomial g^exps as {basis exps: coeff}."""
        cached = self._reduce_cache.get(exps)
        if cached is not None:
            return cached
        over = None
        for i in range(len(exps) - 1, -1, -1):
            if exps[i] >= self.bounds[i]:
                over = i
                break
        if over is None:
            result = {exps: self.ring.one()}
        else:
            rest = list(exps)
            rest[over] -= self.bounds[over]
            result = {}
            for rexps, rc in self.rules[over].items():
                combined = tuple(a + b for a, b in zip(rest, rexps))
                for sexps, sc in self._reduce(combined).items():
                    _acc(result, sexps, rc * sc)
        self._reduce_cache[exps] = result
        return result

    @functools.cached_property
    def generators_nilpotent(self) -> bool:
        """Whether every generator g has g^rank = 0; over a field the
        algebra is then local, with the generators spanning its maximal ideal."""
        return all((self.gen(i) ** self.rank).is_zero() for i in range(len(self.gens)))

    # -- structure ---------------------------------------------------------

    def tensor(self, other: "MonomialQuotientAlgebra") -> "MonomialQuotientAlgebra":
        if other.ring != self.ring:
            raise ContextMismatchError("tensor factors must share a base ring")
        m, n = len(self.gens), len(other.gens)
        zero_r = (0,) * n
        zero_l = (0,) * m
        rules = [
            {exps + zero_r: c for exps, c in rule.items()} for rule in self.rules
        ] + [
            {zero_l + exps: c for exps, c in rule.items()} for rule in other.rules
        ]
        return MonomialQuotientAlgebra(
            self.ring,
            self.gens + other.gens,
            self.bounds + other.bounds,
            rules,
            tensor_factors=(self, other),
        )

    def pure_tensor(self, a: "AlgebraElement", b: "AlgebraElement") -> "AlgebraElement":
        """Image of a (x) b for elements of the two tensor factors."""
        if self.tensor_factors is None:
            raise ParentMismatchError("pure_tensor requires a tensor product algebra")
        left, right = self.tensor_factors
        if a.algebra != left or b.algebra != right:
            raise ParentMismatchError("pure_tensor arguments must come from the tensor factors")
        out = {}
        for ea, ca in a.coeffs.items():
            for eb, cb in b.coeffs.items():
                _acc(out, ea + eb, ca * cb)
        return AlgebraElement(self, out)

    def __eq__(self, other):
        return (
            isinstance(other, MonomialQuotientAlgebra)
            and other.ring == self.ring
            and other.gens == self.gens
            and other.bounds == self.bounds
            and other.rules == self.rules
        )

    def __hash__(self):
        return hash((self.ring, self.gens, self.bounds))

    def __repr__(self):
        rel = ", ".join(
            f"{g}^{b}" for g, b in zip(self.gens, self.bounds)
        )
        return f"<algebra {self.ring.tag}[{', '.join(self.gens)}]/({rel}-rules), rank {self.rank}>"


def unit_algebra(ring) -> MonomialQuotientAlgebra:
    """The base ring viewed as a rank-1 algebra (no generators)."""
    return MonomialQuotientAlgebra(ring, (), (), ())


def _acc(out: dict, key, val):
    cur = out.get(key)
    if cur is None:
        if not val.is_zero():
            out[key] = val
    else:
        s = cur + val
        if s.is_zero():
            del out[key]
        else:
            out[key] = s


def _nonzero(out: dict, p: int | None = None) -> dict:
    """The sums of out without the ones that vanish; with a modulus p, the
    int sums of out reduced mod p first."""
    if p is None:
        return {k: v for k, v in out.items() if not v.is_zero()}
    return {k: r for k, v in out.items() if (r := v % p)}


class AlgebraElement:
    """Sparse element: {exponent tuple: base-ring coefficient}."""

    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra: MonomialQuotientAlgebra, coeffs: dict):
        self.algebra = algebra
        self.coeffs = coeffs

    def _check(self, other) -> "AlgebraElement":
        if not isinstance(other, AlgebraElement):
            raise ParentMismatchError(f"cannot combine element with {type(other).__name__}")
        if other.algebra is not self.algebra and other.algebra != self.algebra:
            raise ParentMismatchError("elements belong to different algebras")
        return other

    def __add__(self, other):
        other = self._check(other)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            _acc(out, e, c)
        return AlgebraElement(self.algebra, out)

    def __neg__(self):
        return AlgebraElement(self.algebra, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        other = self._check(other)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            _acc(out, e, -c)
        return AlgebraElement(self.algebra, out)

    def __mul__(self, other):
        A = self.algebra
        # an element of this very algebra needs no conversion and no check
        if type(other) is not AlgebraElement or other.algebra is not A:
            if isinstance(other, int):
                other = A.scalar(A.ring.from_int(other))
            elif isinstance(other, A.ring.element_cls):
                other = A.scalar(other)
            other = self._check(other)
        out = {}
        reduce = A._reduce
        add = operator.add
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                c = c1 * c2
                for em, cm in reduce(tuple(map(add, e1, e2))).items():
                    _acc(out, em, c * cm)
        return AlgebraElement(A, out)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, n: int):
        if n < 0:
            raise UnsupportedParametersError("negative powers: use invert_unit")
        result = self.algebra.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def coefficient(self, exps):
        return self.coeffs.get(tuple(exps), self.algebra.ring.zero())

    def constant_term(self):
        return self.coefficient((0,) * len(self.algebra.gens))

    def is_zero(self) -> bool:
        return not self.coeffs

    def vec(self) -> dict:
        index = self.algebra.index
        return {index(e): c for e, c in self.coeffs.items()}

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraElement)
            and (other.algebra is self.algebra or other.algebra == self.algebra)
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        return hash((self.algebra, frozenset(self.coeffs.items())))

    def __str__(self):
        if not self.coeffs:
            return "0"
        A = self.algebra
        parts = []
        for exps in sorted(self.coeffs, key=A.index):
            c = self.coeffs[exps]
            mono = A.monomial_str(exps)
            cs = str(c)
            if mono == "1":
                parts.append(cs if _is_plain(cs) else f"({cs})")
            elif cs == "1":
                parts.append(mono)
            elif _is_plain(cs):
                parts.append(f"{cs}*{mono}")
            else:
                parts.append(f"({cs})*{mono}")
        return " + ".join(parts)

    def __repr__(self):
        return f"<{self} in {self.algebra!r}>"


def _is_plain(coeff_str: str) -> bool:
    return "+" not in coeff_str and "/" not in coeff_str


def invert_unit(a: AlgebraElement) -> AlgebraElement:
    """Inverse of a unit, via geometric expansion of its augmentation part.

    Falls back to solving against the multiplication matrix when the
    non-constant part is not nilpotent (non-local algebras).
    """
    A = a.algebra
    c = a.constant_term()
    if c.is_unit():
        c_inv = c.invert()
        n = (a - A.scalar(c)) * c_inv
        if n.is_zero():
            return A.scalar(c_inv)
        acc = A.one()
        power = A.one()
        for k in range(1, A.rank + 2):
            power = power * n
            if power.is_zero():
                return acc * c_inv
            acc = acc + (power if k % 2 == 0 else -power)
        # geometric expansion did not terminate: fall through to linear solve
    mat = multiplication_matrix(a)
    try:
        inv = mat.inverse()
    except NotInvertibleError as exc:
        raise NonUnitError(f"element is not a unit: {exc}") from exc
    # the monomial 1 sits at basis index 0
    return A.from_vec(inv.cols[0])


def multiplication_matrix(a: AlgebraElement) -> "LinearMap":
    A = a.algebra
    cols = []
    for exps in A.iter_basis():
        cols.append((a * A.monomial(exps)).vec())
    return LinearMap(A.ring, A.rank, A.rank, cols)


def algebra_hom(source: MonomialQuotientAlgebra, target: MonomialQuotientAlgebra, images):
    """Linear map of the algebra homomorphism sending generator i to images[i].

    Raises RelationViolationError unless every defining relation of the
    source is preserved by the proposed generator images.
    """
    if source.ring != target.ring:
        raise ContextMismatchError("algebra_hom requires a shared base ring")
    images = list(images)
    if len(images) != len(source.gens):
        raise DimensionMismatchError(
            f"expected {len(source.gens)} generator images, got {len(images)}"
        )
    for im in images:
        if im.algebra != target:
            raise ParentMismatchError("generator images must lie in the target algebra")

    # power tables images[i]^k for 0 <= k <= bound_i
    powers = []
    for i, im in enumerate(images):
        row = [target.one()]
        for _ in range(source.bounds[i]):
            row.append(row[-1] * im)
        powers.append(row)

    def apply_to_monomial(exps) -> AlgebraElement:
        out = target.one()
        for i, e in enumerate(exps):
            if e:
                out = out * powers[i][e]
        return out

    def apply_to_element(elem: AlgebraElement) -> AlgebraElement:
        out = target.zero()
        for exps, c in elem.coeffs.items():
            out = out + apply_to_monomial(exps) * c
        return out

    for i, rule in enumerate(source.rules):
        lhs = powers[i][source.bounds[i]]
        rhs = apply_to_element(AlgebraElement(source, dict(rule)))
        if lhs != rhs:
            raise RelationViolationError(
                f"images do not preserve the relation {source.gens[i]}^{source.bounds[i]} = "
                f"{AlgebraElement(source, dict(rule))}; difference {lhs - rhs}"
            )

    cols = [apply_to_monomial(exps).vec() for exps in source.iter_basis()]
    return LinearMap(source.ring, source.rank, target.rank, cols)


class LinearMap:
    """R-linear map stored as sparse columns over the basis index.

    modulus is None for columns of ring elements.  A map from residues()
    has modulus p and int entries in [1, p).  apply and the one-sided tensor
    maps run one loop on either: it adds every product into the output
    without testing it for zero, and _nonzero drops the zero sums once per
    output vector, reducing them mod p first when the entries are residues.
    """

    __slots__ = ("ring", "source_dim", "target_dim", "cols", "modulus")

    def __init__(self, ring, source_dim: int, target_dim: int, cols):
        cols = tuple({i: c for i, c in col.items() if not c.is_zero()} for col in cols)
        if len(cols) != source_dim:
            raise DimensionMismatchError(f"expected {source_dim} columns, got {len(cols)}")
        self.ring = ring
        self.source_dim = source_dim
        self.target_dim = target_dim
        self.cols = cols
        self.modulus = None

    def residues(self) -> "LinearMap":
        """This map over F_p with every entry as its int residue (modulus p)."""
        return LinearMap.of_residues(self.ring, self.source_dim, self.target_dim,
                                     [{i: c.residue for i, c in col.items()} for col in self.cols])

    @staticmethod
    def of_residues(ring, source_dim: int, target_dim: int, cols) -> "LinearMap":
        """The map over ring = F_p (modulus p) whose columns are the given
        dicts of int residues in [1, p), taken as they are."""
        out = object.__new__(LinearMap)
        out.ring, out.source_dim, out.target_dim = ring, source_dim, target_dim
        out.cols = tuple(cols)
        out.modulus = ring.p
        return out

    @staticmethod
    def identity(ring, n: int) -> "LinearMap":
        return LinearMap(ring, n, n, [{i: ring.one()} for i in range(n)])

    def apply(self, vec: dict) -> dict:
        out: dict = {}
        get, cols = out.get, self.cols
        for i, c in vec.items():
            for j, m in cols[i].items():
                out[j] = c * m if (cur := get(j)) is None else cur + c * m
        return _nonzero(out, self.modulus)

    def compose(self, other: "LinearMap") -> "LinearMap":
        """self after other."""
        if other.target_dim != self.source_dim or other.ring != self.ring:
            raise DimensionMismatchError("composition dimension mismatch")
        return LinearMap(self.ring, other.source_dim, self.target_dim,
                         [self.apply(col) for col in other.cols])

    def __add__(self, other: "LinearMap") -> "LinearMap":
        self._same_shape(other)
        cols = []
        for a, b in zip(self.cols, other.cols):
            col = dict(a)
            for i, c in b.items():
                _acc(col, i, c)
            cols.append(col)
        return LinearMap(self.ring, self.source_dim, self.target_dim, cols)

    def __sub__(self, other: "LinearMap") -> "LinearMap":
        self._same_shape(other)
        cols = []
        for a, b in zip(self.cols, other.cols):
            col = dict(a)
            for i, c in b.items():
                _acc(col, i, -c)
            cols.append(col)
        return LinearMap(self.ring, self.source_dim, self.target_dim, cols)

    def _same_shape(self, other):
        if (
            not isinstance(other, LinearMap)
            or other.source_dim != self.source_dim
            or other.target_dim != self.target_dim
            or other.ring != self.ring
        ):
            raise DimensionMismatchError("linear maps have different shapes")

    def transpose(self) -> "LinearMap":
        """The transpose, on int residues (modulus p) when this map holds them."""
        cols: list[dict] = [{} for _ in range(self.target_dim)]
        for j, col in enumerate(self.cols):
            for i, c in col.items():
                cols[i][j] = c
        if self.modulus is not None:
            return LinearMap.of_residues(self.ring, self.target_dim, self.source_dim, cols)
        return LinearMap(self.ring, self.target_dim, self.source_dim, cols)

    def kron(self, other: "LinearMap") -> "LinearMap":
        """Tensor product map, left factor most significant in both indexings."""
        if other.ring != self.ring:
            raise ContextMismatchError("kron requires a shared base ring")
        cols = []
        for ca in self.cols:
            for cb in other.cols:
                col = {}
                for i, a in ca.items():
                    for j, b in cb.items():
                        col[i * other.target_dim + j] = a * b
                cols.append(col)
        return LinearMap(
            self.ring,
            self.source_dim * other.source_dim,
            self.target_dim * other.target_dim,
            cols,
        )

    def is_zero(self) -> bool:
        return all(not col for col in self.cols)

    def inverse(self) -> "LinearMap":
        """Inverse by row reduction of [M | I]; pivots must be units of the base ring."""
        n = self.source_dim
        if self.target_dim != n:
            raise DimensionMismatchError("only square maps can be inverted")
        one = self.ring.one()
        rows = [{n + i: one} for i in range(n)]
        for j, col in enumerate(self.cols):
            for i, c in col.items():
                rows[i][j] = c
        # [M | I] has rank n, so it reduces to n rows.  M is invertible when
        # they are [I | M^-1]; the first column k without a unit pivot is
        # the first column of M mod t that depends on the columns before it.
        reduced = row_reduce(rows)
        for k, (col, row) in enumerate(reduced):
            if col != k or not row[k].is_unit():
                raise NotInvertibleError(
                    f"no unit pivot in column {k}; the map is not invertible over {self.ring.tag}"
                )
        cols: list[dict] = [{} for _ in range(n)]
        for i, (_, row) in enumerate(reduced):
            for j, c in row.items():
                if j >= n:
                    cols[j - n][i] = c
        return LinearMap(self.ring, n, n, cols)

    def __eq__(self, other):
        return (
            isinstance(other, LinearMap)
            and other.ring == self.ring
            and other.source_dim == self.source_dim
            and other.target_dim == self.target_dim
            and other.cols == self.cols
        )

    def __repr__(self):
        return f"<LinearMap {self.source_dim} -> {self.target_dim} over {self.ring.tag}>"


def tensor_apply_left(f: LinearMap, n: int, vec: dict) -> dict:
    """Apply f (x) id_n to a sparse vector over the product index i*n + j."""
    out: dict = {}
    get, cols = out.get, f.cols
    for idx, c in vec.items():
        i, j = divmod(idx, n)
        for fi, fc in cols[i].items():
            k = fi * n + j
            out[k] = c * fc if (cur := get(k)) is None else cur + c * fc
    return _nonzero(out, f.modulus)


def tensor_apply_right(g: LinearMap, vec: dict) -> dict:
    """Apply id (x) g to a sparse vector over the product index i*g.source + j."""
    out: dict = {}
    gs, gt = g.source_dim, g.target_dim
    get, cols = out.get, g.cols
    for idx, c in vec.items():
        i, j = divmod(idx, gs)
        base = i * gt
        for gj, gc in cols[j].items():
            k = base + gj
            out[k] = c * gc if (cur := get(k)) is None else cur + c * gc
    return _nonzero(out, g.modulus)


def tensor_apply(f: LinearMap, g: LinearMap, vec: dict) -> dict:
    """Apply f (x) g to a sparse vector over the product index i*g.source + j,
    as the composite (f (x) id)(id (x) g) of the two one-sided maps."""
    return tensor_apply_left(f, g.target_dim, tensor_apply_right(g, vec))


def row_reduce(rows) -> list[tuple[int, dict]]:
    """Echelon basis of the span of sparse rows, pivoting on t-valuation.

    Columns are taken in increasing order.  In each one the pivot is the
    remaining row whose entry has the least t-valuation, so every multiplier
    that clears the column lies in the base ring, also over F_p[t]_(t) where
    a pivot need not be a unit.  A unit pivot is scaled to 1 and also clears
    its column in the earlier pivot rows: over a field, or whenever every
    pivot is a unit, the result is the reduced echelon form.  Returns
    (pivot column, row) pairs in column order; each row is zero left of
    its pivot column.
    """
    work = [r for r in ({j: c for j, c in row.items() if not c.is_zero()} for row in rows) if r]
    reduced: list[tuple[int, dict]] = []
    for col in sorted({j for row in work for j in row}):
        hits = [row for row in work if col in row]
        if not hits:
            continue
        # Entries of F_p and F_p[t]_(t) have valuation >= 0, so the scan can
        # stop at 0; over F_p(t) every nonzero pivot is a unit anyway.
        pivot_row, least = None, None
        for row in hits:
            v = row[col].t_valuation()
            if least is None or v < least:
                pivot_row, least = row, v
                if v <= 0:
                    break
        pivot = pivot_row[col]
        targets = hits
        if pivot.is_unit():
            inv = pivot.invert()
            for j, c in pivot_row.items():
                pivot_row[j] = c * inv
            pivot = pivot_row[col]
            targets = hits + [row for _, row in reduced if col in row]
        for row in targets:
            if row is not pivot_row:
                _subtract_multiple(row, row[col] / pivot, pivot_row)
        reduced.append((col, pivot_row))
        work = [row for row in work if row and row is not pivot_row]
        if not work:
            break
    return reduced


def in_span(reduced: list[tuple[int, dict]], vec: dict) -> bool:
    """Whether vec is a base-ring combination of the rows of a row_reduce result.

    The coefficient of each row is forced by its pivot column, so vec lies
    in the span exactly when every such quotient stays in the base ring and
    nothing is left over.
    """
    v = {i: c for i, c in vec.items() if not c.is_zero()}
    for col, row in reduced:
        c = v.get(col)
        if c is None:
            continue
        try:
            f = c / row[col]
        except NonUnitError:
            return False
        _subtract_multiple(v, f, row)
    return not v


def _subtract_multiple(row: dict, f, pivot_row: dict) -> None:
    """row -= f * pivot_row, dropping the entries that cancel."""
    for j, c in pivot_row.items():
        cur = row.get(j)
        if cur is None:
            row[j] = -(f * c)  # nonzero: every base ring is a domain
        else:
            d = cur - f * c
            if d.is_zero():
                del row[j]
            else:
                row[j] = d


def null_space(m: LinearMap) -> list[dict]:
    """Kernel basis over a field, as sparse vectors.

    Each free column gets 1, and each pivot column minus the free column's
    entry in that pivot's row of the reduced echelon form.
    """
    if not m.ring.is_field:
        raise UnsupportedParametersError("null_space requires a field base ring")
    pivots = row_reduce(m.transpose().cols)
    pivot_cols = {col for col, _ in pivots}
    one = m.ring.one()
    basis = []
    for free in range(m.source_dim):
        if free in pivot_cols:
            continue
        vec = {free: one}
        for col, row in pivots:
            v = row.get(free)
            if v is not None:
                vec[col] = -v
        basis.append(vec)
    return basis
