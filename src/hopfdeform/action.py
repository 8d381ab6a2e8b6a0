"""Translation action of the infinitesimal kernel alpha_p^n on its own
coordinate ring, over finite test algebras.

An element f of F_p[x_1..x_n]/(x_i^p) tensored with a test algebra B is
translated by a point b in alpha_p^n(B) (a vector of p-nilpotents of B)
via f(x) -> f(x + b).  The module checks the action laws, enumerates
stabilizers, and certifies symbolically that translation is free wherever
the top coefficient is a unit: the obstruction in degree top - e_i equals
(p-1) * c_top * b_i on the nose.
"""

from __future__ import annotations

import itertools
import operator
import random

from .algebra import (
    AlgebraElement,
    MonomialQuotientAlgebra,
    _acc,
    invert_unit,
    multiplication_matrix,
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
    return RegularRepElement(f.p, f.n, f.coefficient_algebra, out)


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
    nilpotents = [e for e in enumerate_elements(B) if _pth_power(e).is_zero()]
    return [ActionPoint(coords) for coords in itertools.product(nilpotents, repeat=n)]


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
              seed: int = DEFAULT_SEED) -> bool:
    """Check the action laws: identity and composition of translations.

    All point pairs are tried when their number is at most max_pairs;
    beyond that a seeded sample of pairs is used.  translate_fn is called
    with translate's own signature, (f, point, expansion_table(p, n, point));
    each table is built on first use, so only points that occur get one.
    """
    points = enumerate_action_points(p, n, B)
    reps = spanning_elements(p, n, B)
    tables: dict = {}

    def table(pt):
        t = tables.get(pt)
        if t is None:
            t = tables[pt] = expansion_table(p, n, pt)
        return t

    zero = zero_point(B, n)
    zero_table = table(zero)
    for f in reps:
        if translate_fn(f, zero, zero_table) != f:
            return False
    total = len(points) ** 2
    if total <= max_pairs:
        pairs = [(b, c) for b in points for c in points]
    else:
        rng = random.Random(seed)
        pairs = [
            (points[rng.randrange(len(points))], points[rng.randrange(len(points))])
            for _ in range(max_pairs)
        ]
    for b, c in pairs:
        bc = b + c
        tb, tc, tbc = table(b), table(c), table(bc)
        for f in reps:
            if translate_fn(translate_fn(f, b, tb), c, tc) != translate_fn(f, bc, tbc):
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
    as rank x rank int residues (row r, column s), built by multiplying
    the basis monomials.  Applied to f's stacked coefficients it gives the
    coefficient of x^tau in f(x + b); translation fixes f only if that
    equals f's own, so a mismatch proves the point moves f without a full
    translate.
    """
    monomials = list(itertools.product(range(p), repeat=n))
    prepared = []
    for pt in points:
        if pt.is_zero():
            continue
        rank = pt.algebra.rank
        table = expansion_table(p, n, pt)
        probe = []
        for i in range(n):
            tau = tuple(p - 1 - (1 if j == i else 0) for j in range(n))
            keys = tuple(a for a in monomials if tau in table[a])
            blocks = [multiplication_matrix(table[a][tau]).cols for a in keys]
            rows = tuple(
                tuple(col[r].residue if r in col else 0 for cols in blocks for col in cols)
                for r in range(rank))
            probe.append((tau, keys, rows))
        prepared.append((pt, table, probe))
    return prepared


def probed_stabilizer(f: RegularRepElement, probes: list) -> list:
    """The points of hyperplane_probes(...) that fix f, in their order.

    f's coefficients become residue vectors once; a point passes the probe
    when every probed coefficient agrees with f's mod p, and only such
    points get the full check translate(f, point, table) == f.
    """
    p = f.p
    vectors = {a: _residues(f.coefficient(a))
               for a in itertools.product(range(p), repeat=f.n)}
    stacked: dict = {}
    hits = []
    for pt, table, probe in probes:
        for tau, keys, rows in probe:
            v = stacked.get(keys)
            if v is None:
                v = stacked[keys] = [x for a in keys for x in vectors[a]]
            if [sum(map(operator.mul, row, v)) % p for row in rows] != vectors[tau]:
                break
        else:
            if translate(f, pt, table) == f:
                hits.append(pt)
    return hits


def free_locus_hyperplane_check(p, n, B, trials: int | None = None,
                                seed: int = DEFAULT_SEED) -> FreeLocusReport:
    """Unit top coefficient forces a trivial stabilizer; test it.

    trials = None enumerates every element with a unit coefficient at
    x_1^{p-1}...x_n^{p-1}; a positive count runs that many seeded random
    trials (trial k is drawn from seed + k, so batches are order-free).
    Any element fixed by a nonzero point is reported with full data.
    """
    p = Prime(p).p
    _require_test_algebra(B)
    points = enumerate_action_points(p, n, B)
    monomials = list(itertools.product(range(p), repeat=n))
    top = (p - 1,) * n
    probes = hyperplane_probes(p, n, points)

    failures = []
    if trials is None:
        elements = enumerate_elements(B)
        count = len(elements) ** len(monomials)
        if count > POINT_ENUMERATION_CAP:
            raise SizeGuardError(
                f"{count} candidate elements exceed the cap {POINT_ENUMERATION_CAP}"
            )
        checked = 0
        for combo in itertools.product(elements, repeat=len(monomials)):
            coeffs = dict(zip(monomials, combo))
            if not is_unit_element(coeffs[top]):
                continue
            f = RegularRepElement(p, n, B, coeffs)
            checked += 1
            hits = probed_stabilizer(f, probes)
            if hits:
                failures.append({"f": str(f), "stabilizer": [str(h) for h in hits]})
        return FreeLocusReport(p, n, describe_test_algebra(B), "exhaustive", checked, None,
                               len(points), failures)

    for k in range(trials):
        rng = random.Random(seed + k)
        coeffs = {a: random_algebra_element(rng, B) for a in monomials}
        coeffs[top] = _random_unit(rng, B)
        f = RegularRepElement(p, n, B, coeffs)
        hits = probed_stabilizer(f, probes)
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
    bound kills it; the iteration is recorded step by step.
    """
    S, c_syms, b_syms = symbolic_coefficient_ring(p, n)
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

    # b_i^p = 0 caps every b-exponent at p - 1, so (b)^{n(p-1)+1} = 0.
    # b_i = unit * residual_i with residual_i in (b)^2; once every b_j sits
    # in (b)^m the residual sits in (b)^{2m} inside (b)^{m+1}, advancing the
    # exponent from 1 until the ideal power vanishes.
    max_b_degree = n * (p - 1)
    bound = n * (p - 1) * (p - 1) + 1
    steps = ([{"assume": m, "conclude": m + 1} for m in range(1, max_b_degree + 1)]
             if all_ok else [])
    return SymbolicIdentityCertificate(p, n, directions, bound, max_b_degree, steps, all_ok)
