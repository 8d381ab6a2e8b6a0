"""Translation action of the infinitesimal kernel alpha_p^n on its own
coordinate ring, over finite test algebras.

An element f of F_p[x_1..x_n]/(x_i^p) tensored with a test algebra B is
translated by a point b in alpha_p^n(B) (a vector of p-nilpotents of B)
via f(x) -> f(x + b).  The module checks the action laws, enumerates
stabilizers, and certifies symbolically that translation is free wherever
the top coefficient is a unit: the obstruction in degree top - e_i equals
(p-1) * c_top * b_i on the nose.

The free-locus command enumerates the action points once and hands the
list to both of its checks.  Frobenius is F_p-linear on a test algebra, so
the nilpotent coordinates are the kernel of one residue matrix, the p-th
powers of the basis monomials.  The action laws are decided by
linearity: the spanning elements beta * x^a are an F_p basis, so each used
point gets one residue matrix, its translates of them, and a pair (b, c)
is the identity M_c * M_b = M_{b+c} mod p.  The hyperplane probes form each
multiplication matrix as a residue combination of the basis-monomial
matrices, built once per call; probe blocks with equal content are one
shared tuple, evaluated once per candidate.  A random trial reads its
values from one block of Mersenne Twister words, in the order that
successive randrange(p) calls on the same generator would return them.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random

from .algebra import (
    AlgebraElement,
    LinearMap,
    MonomialQuotientAlgebra,
    _acc,
    invert_unit,
    multiplication_matrix,
    null_space,
)
from .errors import (
    ContextMismatchError,
    NonUnitError,
    SizeGuardError,
    UnsupportedParametersError,
)
from .rings import Prime, PrimeField

DEFAULT_SEED = 20260823
POINT_ENUMERATION_CAP = 10**6
# Mersenne Twister words read ahead per value of a random trial (see
# _randrange_block); a trial that needs more continues with randrange.
DRAW_WORDS_PER_VALUE = 3


def binom_mod_p(m: int, j: int, p: int) -> int:
    """Binomial coefficient mod p by Lucas' digit rule."""
    if j < 0 or j > m:
        return 0
    out = 1
    while m or j:
        m, md = divmod(m, p)
        j, jd = divmod(j, p)
        if jd > md:
            return 0
        num = den = 1
        for k in range(jd):
            num = num * (md - k) % p
            den = den * (k + 1) % p
        out = out * num * pow(den, p - 2, p) % p
    return out


def _require_test_algebra(B):
    if not isinstance(B, MonomialQuotientAlgebra) or not isinstance(B.ring, PrimeField):
        raise ContextMismatchError("test algebras are finite monomial quotients over F_p")


def _pth_power(elem: AlgebraElement) -> AlgebraElement:
    # (sum c_m m)^p = sum c_m m^p in char p, and c^p = c over F_p; the
    # monomial's normal form rewrites the exponents p*e past the bounds
    A = elem.algebra
    p = A.ring.p
    return sum((A.monomial(tuple(p * e for e in exps), c) for exps, c in elem.coeffs.items()),
               A.zero())


class RegularRepElement:
    """f = sum c_a x^a with c_a in a test algebra B, exponents below p."""

    __slots__ = ("p", "n", "coefficient_algebra", "coefficients")

    def __init__(self, p: int, n: int, coefficient_algebra, coefficients: dict):
        _require_test_algebra(coefficient_algebra)
        field_p = coefficient_algebra.ring.p
        if type(p) is not int or p != field_p:
            if Prime(p).p != field_p:
                raise ContextMismatchError(f"test algebra lives over F_{field_p}, not F_{p}")
        clean = {}
        for exps, c in coefficients.items():
            if len(exps) != n or any(e < 0 or e >= field_p for e in exps):
                raise UnsupportedParametersError(f"exponent vector {exps} out of range")
            if not (isinstance(c, AlgebraElement)
                    and (c.algebra is coefficient_algebra or c.algebra == coefficient_algebra)):
                raise ContextMismatchError("coefficients must lie in the test algebra")
            if not c.is_zero():
                clean[tuple(exps)] = c
        self.p = field_p
        self.n = n
        self.coefficient_algebra = coefficient_algebra
        self.coefficients = clean

    def coefficient(self, exps) -> AlgebraElement:
        return self.coefficients.get(tuple(exps), self.coefficient_algebra.zero())

    def is_zero(self) -> bool:
        return not self.coefficients

    def _compatible(self, other):
        if (
            not isinstance(other, RegularRepElement)
            or other.p != self.p
            or other.n != self.n
            or (other.coefficient_algebra is not self.coefficient_algebra
                and other.coefficient_algebra != self.coefficient_algebra)
        ):
            raise ContextMismatchError("mixed regular-representation parents")
        return other

    def __add__(self, other):
        other = self._compatible(other)
        out = dict(self.coefficients)
        for exps, c in other.coefficients.items():
            _acc(out, exps, c)
        return RegularRepElement(self.p, self.n, self.coefficient_algebra, out)

    def __sub__(self, other):
        other = self._compatible(other)
        out = dict(self.coefficients)
        for exps, c in other.coefficients.items():
            _acc(out, exps, -c)
        return RegularRepElement(self.p, self.n, self.coefficient_algebra, out)

    def scale(self, c: AlgebraElement) -> "RegularRepElement":
        return RegularRepElement(self.p, self.n, self.coefficient_algebra,
                                 {exps: c * v for exps, v in self.coefficients.items()})

    def __eq__(self, other):
        return (
            isinstance(other, RegularRepElement)
            and other.p == self.p
            and other.n == self.n
            and (other.coefficient_algebra is self.coefficient_algebra
                 or other.coefficient_algebra == self.coefficient_algebra)
            and other.coefficients == self.coefficients
        )

    def __hash__(self):
        return hash((self.p, self.n, frozenset(self.coefficients.items())))

    def _mono_str(self, exps) -> str:
        if not any(exps):
            return "1"
        parts = []
        for i, e in enumerate(exps):
            if not e:
                continue
            name = "x" if self.n == 1 else f"x{i + 1}"
            parts.append(name if e == 1 else f"{name}^{e}")
        return "*".join(parts)

    def __str__(self):
        if not self.coefficients:
            return "0"
        parts = []
        for exps in sorted(self.coefficients):
            c = self.coefficients[exps]
            cs = str(c)
            mono = self._mono_str(exps)
            if mono == "1":
                parts.append(cs)
            elif cs == "1":
                parts.append(mono)
            else:
                if "+" in cs or "/" in cs:
                    cs = f"({cs})"
                parts.append(f"{cs}*{mono}")
        return " + ".join(parts)

    def __repr__(self):
        return f"<rep element {self}>"


class ActionPoint:
    """A point of alpha_p^n(B): coordinates with vanishing p-th power."""

    __slots__ = ("coordinates",)

    def __init__(self, coordinates):
        coords = tuple(coordinates)
        if not coords:
            raise UnsupportedParametersError("a point needs at least one coordinate")
        B = coords[0].algebra
        for c in coords:
            if not (isinstance(c, AlgebraElement) and c.algebra == B):
                raise ContextMismatchError("point coordinates must share one test algebra")
            if not _pth_power(c).is_zero():
                raise UnsupportedParametersError(
                    f"coordinate {c} has nonvanishing p-th power; not a point of the kernel"
                )
        self.coordinates = coords

    @property
    def n(self) -> int:
        return len(self.coordinates)

    @property
    def algebra(self):
        return self.coordinates[0].algebra

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coordinates)

    def __add__(self, other):
        if not isinstance(other, ActionPoint) or other.n != self.n:
            raise ContextMismatchError("mixed action points")
        return ActionPoint(tuple(a + b for a, b in zip(self.coordinates, other.coordinates)))

    def __eq__(self, other):
        return isinstance(other, ActionPoint) and other.coordinates == self.coordinates

    def __hash__(self):
        return hash(self.coordinates)

    def __str__(self):
        return "(" + ", ".join(str(c) for c in self.coordinates) + ")"

    def __repr__(self):
        return f"<point {self}>"


def zero_point(B, n: int) -> ActionPoint:
    return ActionPoint((B.zero(),) * n)


# ---------------------------------------------------------------------------
# translation


def expansion_table(p: int, n: int, point: ActionPoint) -> dict:
    """(x + b)^a for every x-monomial a, as {a: {exponent vector j: coefficient in B}}.

    Expands each factor (x_i + b_i)^{a_i} binomially with coefficients
    reduced mod p; b_i^p = 0 truncates automatically inside B.
    """
    B = point.algebra
    pows = []
    for b in point.coordinates:
        row = [B.one()]
        for _ in range(p - 1):
            row.append(row[-1] * b)
        pows.append(row)
    table = {}
    for a in itertools.product(range(p), repeat=n):
        out = table[a] = {}
        for j in itertools.product(*[range(ai + 1) for ai in a]):
            coeff = 1
            for ai, ji in zip(a, j):
                coeff = coeff * binom_mod_p(ai, ji, p) % p
            if not coeff:
                continue
            val = B.scalar(B.ring.from_int(coeff))
            for i, (ai, ji) in enumerate(zip(a, j)):
                if ai > ji:
                    val = val * pows[i][ai - ji]
            _acc(out, j, val)
    return table


def translate(f: RegularRepElement, point: ActionPoint, table: dict | None = None) -> RegularRepElement:
    """The action b . f = f(x + b); table is expansion_table(f.p, f.n, point),
    built here when the caller has none."""
    if point.n != f.n or point.algebra != f.coefficient_algebra:
        raise ContextMismatchError("point and element live over different data")
    if table is None:
        table = expansion_table(f.p, f.n, point)
    out: dict = {}
    for a, c in f.coefficients.items():
        for j, factor in table[a].items():
            _acc(out, j, c * factor)
    # the keys come from the table and _acc keeps only nonzero products in
    # B, so the result needs none of __init__'s validation
    g = object.__new__(RegularRepElement)
    g.p, g.n, g.coefficient_algebra, g.coefficients = f.p, f.n, f.coefficient_algebra, out
    return g


# ---------------------------------------------------------------------------
# enumeration


def enumerate_elements(B) -> list:
    """Every element of a finite test algebra, in deterministic order."""
    _require_test_algebra(B)
    p = B.ring.p
    size = p**B.rank
    if size > POINT_ENUMERATION_CAP:
        raise SizeGuardError(f"|B| = {size} exceeds the enumeration cap {POINT_ENUMERATION_CAP}")
    basis = list(B.iter_basis())
    out = []
    for vec in itertools.product(range(p), repeat=B.rank):
        coeffs = {}
        for exps, k in zip(basis, vec):
            if k:
                coeffs[exps] = B.ring.from_int(k)
        out.append(B.element(coeffs))
    return out


def enumerate_action_points(p: int, n: int, B) -> list:
    """All of alpha_p^n(B), deterministically ordered."""
    _require_test_algebra(B)
    p = Prime(p).p
    if B.ring.p != p:
        raise ContextMismatchError(f"test algebra lives over F_{B.ring.p}, not F_{p}")
    size = (p**B.rank) ** n
    if size > POINT_ENUMERATION_CAP:
        raise SizeGuardError(f"|B|^n = {size} exceeds the enumeration cap {POINT_ENUMERATION_CAP}")
    from_int = B.ring.from_int
    basis = list(B.iter_basis())  # one key tuple per basis monomial, shared by every point
    nilpotents = [AlgebraElement(B, {exps: from_int(k) for exps, k in zip(basis, v) if k})
                  for v in _frobenius_kernel(B)]
    return [ActionPoint(coords) for coords in itertools.product(nilpotents, repeat=n)]


def _frobenius_kernel(B) -> list:
    """Residue vectors of the c in B with c^p = 0, in enumerate_elements order.

    c -> c^p is F_p-linear on a commutative F_p-algebra, so these form the
    null space of the matrix whose columns are the p-th powers of the basis
    monomials; every F_p-combination of a kernel basis is listed once and
    sorted, which is the lexicographic order enumerate_elements follows.
    """
    p, rank = B.ring.p, B.rank
    frobenius = LinearMap(B.ring, rank, rank,
                          [_pth_power(B.monomial(exps)).vec() for exps in B.iter_basis()])
    span = [(0,) * rank]
    for basis_vec in null_space(frobenius):
        step = [0] * rank
        for i, c in basis_vec.items():
            step[i] = c.residue
        span = [tuple((x + k * d) % p for x, d in zip(v, step))
                for v in span for k in range(p)]
    return sorted(span)


def stabilizer(f: RegularRepElement) -> list:
    """Action points fixing f, as a sublist of the full enumeration."""
    return [pt for pt in enumerate_action_points(f.p, f.n, f.coefficient_algebra)
            if translate(f, pt) == f]


# ---------------------------------------------------------------------------
# action laws


def spanning_elements(p: int, n: int, B) -> list:
    """B-basis multiples of the x-monomials; translation is B-linear, so
    the action laws on these span the general case."""
    out = []
    for exps in B.iter_basis():
        beta = B.monomial(exps)
        for a in itertools.product(range(p), repeat=n):
            out.append(RegularRepElement(p, n, B, {a: beta}))
    return out


def is_action(p, n, B, translate_fn=translate, max_pairs: int = 500,
              seed: int = DEFAULT_SEED, points: list | None = None) -> bool:
    """Check the action laws: identity and composition of translations.

    points is enumerate_action_points(p, n, B), enumerated here when the
    caller has none.  All point pairs are tried when their number is at
    most max_pairs; beyond that a seeded sample of pairs is used.
    translate_fn is called with translate's own signature, (f, point,
    expansion_table(p, n, point)), once per spanning element f and used
    point: 0 and every b, c and b + c of a pair.  Each table is built on
    first use, so only points that occur get one.

    translate_fn must be F_p-linear in f, and the law is decided for the
    linear maps its values on the spanning basis define.  The spanning
    elements beta * x^a are an F_p basis of B[x]/(x^p)^n, so T_b is the
    residue matrix M_b whose column j is translate_fn(reps[j], b), read in
    that basis.  The identity law compares the translates at 0 with the
    spanning elements as elements; a pair (b, c) passes when M_c * M_b and
    M_{b+c} agree mod p, column by column.  translate is B-linear, so for it
    this is T_c(T_b f) = T_{b+c} f on every f.
    """
    if points is None:
        points = enumerate_action_points(p, n, B)
    reps = spanning_elements(p, n, B)
    total = len(points) ** 2
    if total <= max_pairs:
        pairs = [(b, c) for b in points for c in points]
    else:
        rng = random.Random(seed)
        pairs = [
            (points[rng.randrange(len(points))], points[rng.randrange(len(points))])
            for _ in range(max_pairs)
        ]

    # every point that occurs, numbered in order of first use
    used: list = []
    slots: dict = {}

    def slot(pt):
        k = slots.get(pt)
        if k is None:
            k = slots[pt] = len(used)
            used.append(pt)
        return k

    slot(zero_point(B, n))
    triples = [(slot(b), slot(c), slot(b + c)) for b, c in pairs]
    # a point's matrix is kept only while a later pair still reads it as
    # M_b, M_c or M_{b+c}
    uses = [0] * len(used)
    for triple in triples:
        for k in triple:
            uses[k] += 1
    # beta * x^a, the spanning element at index s * p^n + (index of a), as
    # spanning_elements lists them
    width = p**n
    row_of = {exps: s * width for s, exps in enumerate(B.iter_basis())}
    column_of = {a: i for i, a in enumerate(itertools.product(range(p), repeat=n))}

    def matrix_of(moved):
        # column j holds the residues of moved[j] in the spanning basis
        return LinearMap.of_residues(B.ring, len(reps), len(reps), [
            {row_of[exps] + column_of[a]: k.residue
             for a, c in g.coefficients.items() for exps, k in c.coeffs.items() if k.residue}
            for g in moved])

    def translates(k):
        pt = used[k]
        table = expansion_table(p, n, pt)
        return [translate_fn(f, pt, table) for f in reps]

    at_zero = translates(0)
    if at_zero != reps:
        return False
    matrices = {0: matrix_of(at_zero)}

    def matrix(k):
        m = matrices.get(k)
        if m is None:
            m = matrices[k] = matrix_of(translates(k))
        uses[k] -= 1
        if not uses[k]:
            del matrices[k]
        return m

    for kb, kc, kbc in triples:
        mb, mc, mbc = matrix(kb), matrix(kc), matrix(kbc)
        # column j of M_c * M_b is M_c applied to column j of M_b
        if any(mc.apply(col) != want for col, want in zip(mb.cols, mbc.cols)):
            return False
    return True


# ---------------------------------------------------------------------------
# free locus


def is_unit_element(c: AlgebraElement) -> bool:
    """Unit test in a finite test algebra.

    When every generator is nilpotent the algebra is local and the test
    reduces to the constant term; otherwise fall back to inverting.
    """
    if c.algebra.generators_nilpotent:
        return not c.constant_term().is_zero()
    try:
        invert_unit(c)
        return True
    except NonUnitError:
        return False


def random_algebra_element(rng: random.Random, B) -> AlgebraElement:
    coeffs = {}
    for exps in B.iter_basis():
        k = rng.randrange(B.ring.p)
        if k:
            coeffs[exps] = B.ring.from_int(k)
    return B.element(coeffs)


def _random_unit(rng: random.Random, B) -> AlgebraElement:
    for _ in range(1000):
        c = random_algebra_element(rng, B)
        if is_unit_element(c):
            return c
    raise AssertionError("unit sampling failed; the algebra has almost no units")


def describe_test_algebra(B) -> str:
    if not B.gens:
        return f"F{B.ring.p}"
    rels = ", ".join(f"{g}^{b}" for g, b in zip(B.gens, B.bounds))
    return f"F{B.ring.p}[{', '.join(B.gens)}]/({rels})"


class FreeLocusReport:
    __slots__ = ("p", "n", "algebra", "mode", "trials", "seed", "points", "failures")

    def __init__(self, p: int, n: int, algebra: str, mode: str, trials: int,
                 seed: int | None, points: int, failures: list | None = None):
        self.p = p
        self.n = n
        self.algebra = algebra
        self.mode = mode
        self.trials = trials
        self.seed = seed
        self.points = points
        self.failures = [] if failures is None else failures

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "n": self.n,
            "algebra": self.algebra,
            "mode": self.mode,
            "trials": self.trials,
            "seed": self.seed,
            "points": self.points,
            "passed": self.ok,
            "failures": list(self.failures),
        }


def _residues(c: AlgebraElement) -> list:
    """Coordinates of a test-algebra element as ints in [0, p), in basis order."""
    B = c.algebra
    v = [0] * B.rank
    for exps, k in c.coeffs.items():
        v[B.index(exps)] = k.residue
    return v


def hyperplane_probes(p: int, n: int, points) -> list:
    """(point, expansion table, probe) for every nonzero point, in order.

    The probe holds, per direction i, the monomial tau = x^top / x_i, the
    monomials a with x^tau in the expansion of (x + b)^a, and the rows of
    [M_a1 | M_a2 | ...]: M_a is the matrix of c -> c * table[a][tau] on B
    as rank x rank int residues (row r, column s).  Applied to f's stacked
    coefficients it gives the coefficient of x^tau in f(x + b); translation
    fixes f only if that equals f's own, so a mismatch proves the point
    moves f without a full translate.

    M_a is linear in table[a][tau], so it is the residue combination of the
    rank basis-monomial matrices, which are built once per call.  Entries
    (tau, keys, rows) with equal content are one shared tuple, which
    _probe_passes evaluates once per candidate.
    """
    monomials = list(itertools.product(range(p), repeat=n))
    taus = [tuple(p - 1 - (j == i) for j in range(n)) for i in range(n)]
    nonzero = [pt for pt in points if not pt.is_zero()]
    if not nonzero:
        return []
    B = nonzero[0].algebra
    rank = B.rank
    # per basis monomial m_s, the nonzero entries (r, t, residue) of c -> c * m_s
    units = [[(r, t, c.residue)
              for t, col in enumerate(multiplication_matrix(B.monomial(exps)).cols)
              for r, c in col.items()]
             for exps in B.iter_basis()]

    def matrix(z):
        # rows of c -> c * z on B, for the residue vector z
        rows = [[0] * rank for _ in range(rank)]
        for k, unit in zip(z, units):
            if k:
                for r, t, u in unit:
                    rows[r][t] += k * u
        return [[x % p for x in row] for row in rows]

    entries: dict = {}  # each distinct entry, shared by every point that has it
    prepared = []
    for pt in nonzero:
        table = expansion_table(p, n, pt)
        probe = []
        for tau in taus:
            keys = tuple(a for a in monomials if tau in table[a])
            # row r of [M_a1 | M_a2 | ...] chains row r of each M_a
            blocks = [matrix(_residues(table[a][tau])) for a in keys]
            entry = (tau, keys, tuple(map(tuple, map(itertools.chain.from_iterable,
                                                     zip(*blocks)))))
            probe.append(entries.setdefault(entry, entry))
        prepared.append((pt, table, probe))
    return prepared


def _element_of(B, v) -> AlgebraElement:
    """The test-algebra element whose coordinates, in basis order, are the ints v."""
    from_int = B.ring.from_int
    return AlgebraElement(B, {exps: from_int(k) for exps, k in zip(B.iter_basis(), v) if k})


def _probe_passes(vectors: dict, probes: list, p: int) -> list:
    """(point, table) for each entry of hyperplane_probes(...) whose probe f passes.

    vectors maps every x-monomial a to the residue vector of f's
    coefficient at a; a point passes when every probed coefficient of
    f(x + b) agrees with f's own mod p.
    """
    stacked: dict = {}
    verdicts: dict = {}  # by id, while probes keeps every entry alive
    passed = []
    for pt, table, probe in probes:
        for entry in probe:
            ok = verdicts.get(id(entry))
            if ok is None:
                tau, keys, rows = entry
                v = stacked.get(keys)
                if v is None:
                    v = stacked[keys] = [x for a in keys for x in vectors[a]]
                ok = verdicts[id(entry)] = (
                    [sum(map(operator.mul, row, v)) % p for row in rows] == vectors[tau])
            if not ok:
                break
        else:
            passed.append((pt, table))
    return passed


def probed_stabilizer(f: RegularRepElement, probes: list) -> list:
    """The points of hyperplane_probes(...) that fix f, in their order.

    f's coefficients become residue vectors once; a point passes the probe
    when every probed coefficient agrees with f's mod p, and only such
    points get the full check translate(f, point, table) == f.
    """
    vectors = {a: _residues(f.coefficient(a))
               for a in itertools.product(range(f.p), repeat=f.n)}
    return [pt for pt, table in _probe_passes(vectors, probes, f.p)
            if translate(f, pt, table) == f]


def _randrange_block(rng: random.Random, p: int, words: int) -> list:
    """The values that successive rng.randrange(p) calls would return next,
    read from one rng.getrandbits(32 * words) block.

    randrange(p) keeps the top k = p.bit_length() bits of one 32-bit word
    and rejects values >= p; getrandbits(32 * w) returns w successive words,
    the first in the lowest bits.  So the top byte of each word, shifted
    down by 8 - k, filtered to values below p, is that sequence.  The
    generator stands after the block, where randrange continues the
    sequence.  For p above 255 the block is empty.
    """
    if p > 255 or not words:
        return []
    keep, reject = _top_bits_tables(p)
    return list(rng.getrandbits(32 * words).to_bytes(4 * words, "little")[3::4]
                .translate(keep, reject))


@functools.cache
def _top_bits_tables(p: int) -> tuple:
    """bytes.translate tables that map a word's top byte to its top
    p.bit_length() bits and delete the bytes whose top bits are >= p."""
    shift = 8 - p.bit_length()
    return (bytes(c >> shift for c in range(256)),
            bytes(c for c in range(256) if c >> shift >= p))


def free_locus_hyperplane_check(p, n, B, trials: int | None = None,
                                seed: int = DEFAULT_SEED,
                                points: list | None = None) -> FreeLocusReport:
    """Unit top coefficient forces a trivial stabilizer; test it.

    trials = None enumerates every element with a unit coefficient at
    x_1^{p-1}...x_n^{p-1}; a positive count runs that many seeded random
    trials (trial k is drawn from seed + k, so batches are order-free).
    Any element fixed by a nonzero point is reported with full data.
    points is enumerate_action_points(p, n, B), enumerated here when the
    caller has none.

    Candidates are residue vectors, one per x-monomial, drawn in the order
    of enumerate_elements, random_algebra_element and _random_unit; f is
    built as a RegularRepElement only when some point passes the probe.
    """
    p = Prime(p).p
    _require_test_algebra(B)
    if points is None:
        points = enumerate_action_points(p, n, B)
    monomials = list(itertools.product(range(p), repeat=n))
    top = (p - 1,) * n
    rank = B.rank
    probes = hyperplane_probes(p, n, points)
    if B.generators_nilpotent:
        # B is local: a unit is a nonzero constant term, basis index 0
        def is_unit(v):
            return v[0] != 0
    else:
        def is_unit(v):
            return is_unit_element(_element_of(B, v))

    def non_free(vectors):
        passed = _probe_passes(vectors, probes, p)
        if not passed:
            return None, []
        f = RegularRepElement(p, n, B, {a: _element_of(B, vectors[a]) for a in monomials})
        return f, [pt for pt, table in passed if translate(f, pt, table) == f]

    failures = []
    if trials is None:
        count = (p**rank) ** len(monomials)
        if count > POINT_ENUMERATION_CAP:
            raise SizeGuardError(
                f"{count} candidate elements exceed the cap {POINT_ENUMERATION_CAP}"
            )
        vecs = [list(v) for v in itertools.product(range(p), repeat=rank)]
        checked = 0
        for combo in itertools.product(vecs, repeat=len(monomials)):
            if not is_unit(combo[-1]):  # top is the last monomial
                continue
            checked += 1
            f, hits = non_free(dict(zip(monomials, combo)))
            if hits:
                failures.append({"f": str(f), "stabilizer": [str(h) for h in hits]})
        return FreeLocusReport(p, n, describe_test_algebra(B), "exhaustive", checked, None,
                               len(points), failures)

    # one generator, reseeded per trial; its values come from one block of
    # words, then from randrange once the block runs out
    rng = random.Random()
    randrange = rng.randrange
    drawn = len(monomials) * rank
    words = DRAW_WORDS_PER_VALUE * (drawn + rank)
    for k in range(trials):
        rng.seed(seed + k)
        values = _randrange_block(rng, p, words)
        at = drawn  # the vectors of the monomials come first, then the unit tries
        for _ in range(1000):
            while len(values) < at + rank:
                values.append(randrange(p))
            v = values[at:at + rank]
            at += rank
            if is_unit(v):
                break
        else:
            raise AssertionError("unit sampling failed; the algebra has almost no units")
        vectors = {a: values[i:i + rank] for a, i in zip(monomials, range(0, drawn, rank))}
        vectors[top] = v
        f, hits = non_free(vectors)
        if hits:
            failures.append({"trial": k, "f": str(f), "stabilizer": [str(h) for h in hits]})
    return FreeLocusReport(p, n, describe_test_algebra(B), "random", trials, seed,
                           len(points), failures)


# ---------------------------------------------------------------------------
# the universal symbolic identity


def symbolic_coefficient_ring(p: int, n: int):
    """F_p[c_a][b_1..b_n]/(c_a^2, b_i^p) with one c-symbol per x-monomial.

    The c-degree cap at 2 is harmless: f(x+b) - f(x) is linear in the c's.
    Returns (ring, coefficient symbols keyed by exponent vector, b symbols).
    """
    p = Prime(p).p
    if n < 1 or n > 3 or p > 5:
        raise SizeGuardError(f"symbolic ring guard: need n <= 3 and p <= 5, got ({p}, {n})")
    monomials = list(itertools.product(range(p), repeat=n))
    names = [f"c{''.join(map(str, a))}" for a in monomials] + [
        f"b{i + 1}" for i in range(n)
    ]
    bounds = (2,) * len(monomials) + (p,) * n
    S = MonomialQuotientAlgebra(PrimeField(p), tuple(names), bounds,
                                [{} for _ in names])
    c_syms = {a: S.gen(i) for i, a in enumerate(monomials)}
    b_syms = [S.gen(len(monomials) + i) for i in range(n)]
    return S, c_syms, b_syms


def _b_degree(exps, n: int) -> int:
    return sum(exps[-n:])


class DirectionCheck:
    __slots__ = ("index", "monomial", "extracted", "expected", "exact",
                 "residual_in_b_squared_zero")

    def __init__(self, index: int, monomial: tuple, extracted: str, expected: str,
                 exact: bool, residual_in_b_squared_zero: bool):
        self.index = index
        self.monomial = monomial
        self.extracted = extracted
        self.expected = expected
        self.exact = exact
        self.residual_in_b_squared_zero = residual_in_b_squared_zero


class SymbolicIdentityCertificate:
    __slots__ = ("p", "n", "directions", "nilpotency_bound", "max_b_degree",
                 "induction_steps", "ok")

    def __init__(self, p: int, n: int, directions: list, nilpotency_bound: int,
                 max_b_degree: int, induction_steps: list, ok: bool):
        self.p = p
        self.n = n
        self.directions = directions
        self.nilpotency_bound = nilpotency_bound
        self.max_b_degree = max_b_degree
        self.induction_steps = induction_steps
        self.ok = ok

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "n": self.n,
            "passed": self.ok,
            "nilpotency_bound": self.nilpotency_bound,
            "max_b_degree": self.max_b_degree,
            "induction_steps": list(self.induction_steps),
            "directions": [
                {
                    "index": d.index,
                    "monomial": list(d.monomial),
                    "extracted": d.extracted,
                    "expected": d.expected,
                    "exact": d.exact,
                    "residual_in_b_squared_zero": d.residual_in_b_squared_zero,
                }
                for d in self.directions
            ],
        }


def universal_leading_coefficient_identity(p: int, n: int) -> SymbolicIdentityCertificate:
    """Certify that translation is free where the top coefficient is a unit.

    Over the symbolic ring, for the generic f = sum c_a x^a and generic
    point b, the coefficient of x^top / x_i in f(x+b) - f(x) is extracted
    and compared against (p-1) * c_top * b_i, both exactly and modulo
    (b)^2.  A trivial stabilizer then follows by nilpotent induction: any
    fixing b satisfies c_top * b_i in (b)^2 for every i, so with c_top a
    unit the ideal (b) equals (b)^2, and (b)^m = 0 for m past the degree
    bound kills it; the iteration is recorded step by step, once every
    b-monomial of that degree is checked to vanish in the symbolic ring.
    """
    S, c_syms, b_syms = symbolic_coefficient_ring(p, n)
    # b_i^p = 0 caps every b-exponent at p - 1, so (b)^{n(p-1)+1} = 0, which
    # ends the induction; without it b is no point and nothing is certified.
    max_b_degree = n * (p - 1)
    bound = n * (p - 1) * (p - 1) + 1
    no_c = (0,) * len(c_syms)
    if not all(S.monomial(no_c + e).is_zero()
               for e in itertools.product(range(max_b_degree + 2), repeat=n)
               if sum(e) == max_b_degree + 1):
        return SymbolicIdentityCertificate(p, n, [], bound, max_b_degree, [], False)
    point = ActionPoint(tuple(b_syms))
    f = RegularRepElement(p, n, S, dict(c_syms))
    d = translate(f, point) - f
    top = (p - 1,) * n
    c_top = c_syms[top]

    directions = []
    all_ok = True
    for i in range(n):
        target = tuple(p - 1 - (1 if j == i else 0) for j in range(n))
        extracted = d.coefficient(target)
        expected = c_top * b_syms[i] * S.ring.from_int(p - 1)
        residual = extracted - expected
        mod_b2 = S.element({
            exps: c for exps, c in residual.coeffs.items() if _b_degree(exps, n) < 2
        })
        exact = residual.is_zero()
        ok = mod_b2.is_zero()
        all_ok = all_ok and ok
        directions.append(DirectionCheck(i + 1, target, str(extracted), str(expected),
                                         exact, ok))

    # b_i = unit * residual_i with residual_i in (b)^2; once every b_j sits
    # in (b)^m the residual sits in (b)^{2m} inside (b)^{m+1}, advancing the
    # exponent from 1 until the ideal power vanishes.
    steps = ([{"assume": m, "conclude": m + 1} for m in range(1, max_b_degree + 1)]
             if all_ok else [])
    return SymbolicIdentityCertificate(p, n, directions, bound, max_b_degree, steps, all_ok)
