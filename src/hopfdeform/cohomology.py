"""Dimension calculus for de Rham cohomology of classifying stacks.

Everything here is exact integer bookkeeping.  The two fibers of the rank-p^2
deformation contribute all-ones Poincare series per factor (one factor
generically, two at t = 0), so the n-fold product has closed-form dimensions
C(n+i-1, i) and C(2n+i-1, i).  The module keeps the closed forms and the
convolution builds separate so each can check the other, and layers the
projective-bundle sum and the minimal-n jump solver on top.

The cross-check builds the generic column without a binomial: convolving a
series with the all-ones series gives its running sum, so n - 1 running sums
of one all-ones factor are its n-fold Kunneth power.  The special column is
one real Kunneth product of the generic column with itself (2n = n + n).
That product packs each series into one int, a fixed-width slot per degree,
and multiplies once.  It is exact because the slot width is taken from the
bound m * max(a) * max(b) on every coefficient of an m-term product (each
maximum at least 1, so the bound also covers every input entry), so no slot
overflows into the next.  The table command passes its own closed-form
columns, read from dimension_table's rows by table_binomials, to the
cross-check, so each printed cell's binomial is evaluated once and the check
certifies the numbers that are printed.
"""

from __future__ import annotations

import bisect
import itertools
import math

from .errors import TruncationError, UnsupportedParametersError
from .rings import Fiber


class PoincareSeries:
    """Truncated sequence of cohomological dimensions, indexed from degree 0.

    Entries are nonnegative integers of type int; anything else, bool
    included, is refused rather than coerced.  Queries beyond the truncation
    degree raise TruncationError rather than guessing.
    """

    def __init__(self, coefficients):
        coeffs = tuple(coefficients)
        if not coeffs:
            raise UnsupportedParametersError(
                "a Poincare series needs at least the degree-0 entry")
        if set(map(type, coeffs)) != {int}:
            degree = next(i for i, c in enumerate(coeffs) if type(c) is not int)
            raise UnsupportedParametersError(
                f"dimension entry in degree {degree} is "
                f"{type(coeffs[degree]).__name__} {coeffs[degree]!r}, not int")
        if min(coeffs) < 0:
            raise UnsupportedParametersError("dimension entries must be nonnegative")
        self.coefficients = coeffs

    @property
    def max_degree(self) -> int:
        return len(self.coefficients) - 1

    def __getitem__(self, degree: int) -> int:
        if degree < 0:
            raise UnsupportedParametersError("cohomological degree must be >= 0")
        if degree > self.max_degree:
            raise TruncationError(
                f"degree {degree} exceeds truncation degree {self.max_degree}")
        return self.coefficients[degree]

    def __len__(self) -> int:
        return len(self.coefficients)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PoincareSeries):
            return NotImplemented
        return self.coefficients == other.coefficients

    def __hash__(self) -> int:
        return hash(self.coefficients)

    def __repr__(self) -> str:
        return f"PoincareSeries({list(self.coefficients)!r})"


def _all_ones(max_degree: int) -> PoincareSeries:
    if max_degree < 0:
        raise UnsupportedParametersError("truncation degree must be >= 0")
    return PoincareSeries((1,) * (max_degree + 1))


def series_constant_cyclic(max_degree: int) -> PoincareSeries:
    """Classifying-stack series of a constant cyclic group: 1 in every degree."""
    return _all_ones(max_degree)


def series_alpha_p(max_degree: int) -> PoincareSeries:
    """Classifying-stack series of a single alpha_p factor: 1 in every degree."""
    return _all_ones(max_degree)


def _pack(coefficients: tuple[int, ...], width: int) -> int:
    return int.from_bytes(
        b"".join([c.to_bytes(width, "little") for c in coefficients]), "little")


def kunneth(s1: PoincareSeries, s2: PoincareSeries) -> PoincareSeries:
    """Cauchy convolution, truncated at the smaller of the two bounds.

    The product is one big-integer multiplication (Kronecker substitution):
    each series is packed into an int with one `width`-byte slot per degree,
    the two ints are multiplied, and the slots are read back.  Every
    coefficient of the full product, the degrees past the truncation
    included, is a sum of at most m products of one entry from each side, so
    it is at most m * max(a) * max(b).  The width is taken from that bound
    with each maximum raised to at least 1, so it covers every input entry
    as well, an all-zero factor included: every packed entry and every
    product coefficient is below 256**width.  No slot carries into the next,
    and the slots are the exact Cauchy sums.
    """
    m = min(len(s1), len(s2))
    a, b = s1.coefficients[:m], s2.coefficients[:m]
    width = (m * max(max(a), 1) * max(max(b), 1)).bit_length() // 8 + 1
    x = _pack(a, width)
    # x * x takes CPython's faster squaring path
    product = x * (x if b is a else _pack(b, width))
    data = product.to_bytes(2 * m * width, "little")
    return PoincareSeries([int.from_bytes(data[k:k + width], "little")
                           for k in range(0, m * width, width)])


def kunneth_power(series: PoincareSeries, factors: int) -> PoincareSeries:
    """Convolve a series with itself the given number of times (>= 1 factor).

    The power is built by repeated squaring: one square per binary digit of
    `factors` after the first, and one product per further set digit.  Exact
    integer convolution is associative, so the coefficients are those of
    factors - 1 sequential products.

    No CLI command calls this: the cross-check builds its all-ones powers by
    running sums.  It stays as that build's test oracle.
    """
    if factors < 1:
        raise UnsupportedParametersError("need at least one tensor factor")
    out, square = None, series
    while True:
        if factors & 1:
            out = square if out is None else kunneth(out, square)
        factors >>= 1
        if not factors:
            return out
        square = kunneth(square, square)


def dim_classifying(n: int, degree: int, fiber: Fiber) -> int:
    """Dimension in one cohomological degree for the n-fold product group.

    Generic fiber: C(n+degree-1, degree).  Special fiber: C(2n+degree-1, degree).
    Exact arbitrary-precision integers, so large inputs widen instead of wrapping.
    """
    if n < 1:
        raise UnsupportedParametersError("need at least one product factor")
    if degree < 0:
        raise UnsupportedParametersError("cohomological degree must be >= 0")
    if fiber is Fiber.SPECIAL:
        m = 2 * n
    elif fiber is Fiber.GENERIC:
        m = n
    else:
        raise UnsupportedParametersError(f"unknown fiber {fiber!r}")
    return math.comb(m + degree - 1, degree)


def classifying_series(n: int, fiber: Fiber, max_degree: int) -> PoincareSeries:
    if max_degree < 0:
        raise UnsupportedParametersError("truncation degree must be >= 0")
    return PoincareSeries(
        dim_classifying(n, i, fiber) for i in range(max_degree + 1))


def stabilized_bundle_dim(degree: int) -> int:
    # smallest N for which the even-shift sum has all its terms
    return degree // 2


def projective_bundle_dim(series: PoincareSeries, bundle_dim: int, degree: int) -> int:
    """Total dimension of the even-shift sum s[i] + s[i-2] + ... over a P^N bundle.

    The sum runs over shifts 2j with j <= min(N, floor(i/2)); it stabilizes once
    N reaches floor(i/2).
    """
    if bundle_dim < 0:
        raise UnsupportedParametersError("bundle dimension must be >= 0")
    if degree < 0:
        raise UnsupportedParametersError("cohomological degree must be >= 0")
    if degree > series.max_degree:
        raise TruncationError(
            f"degree {degree} exceeds truncation degree {series.max_degree}")
    return sum(series[degree - 2 * j]
               for j in range(min(bundle_dim, degree // 2) + 1))


class JumpQuery:
    """A requested dimension gap in a fixed cohomological degree."""

    __slots__ = ("gap", "degree", "bundle_dim")

    def __init__(self, gap: int, degree: int, bundle_dim: int | None = None):
        if gap < 1:
            raise UnsupportedParametersError("requested gap must be >= 1")
        if degree < 1:
            raise UnsupportedParametersError("jump degree must be >= 1")
        if bundle_dim is not None and bundle_dim < 0:
            raise UnsupportedParametersError("bundle dimension must be >= 0")
        self.gap = gap
        self.degree = degree
        self.bundle_dim = bundle_dim


def minimal_n_for_jump(query: JumpQuery) -> int:
    """Least n with special dimension >= generic dimension + gap in the query degree.

    The excess C(2n+i-1, i) - C(n+i-1, i) counts the degree-i monomials in 2n
    variables that involve at least one of the last n.  It grows strictly with
    n, and it is at least n: x_1^(i-1) times each of those n variables.  So the
    answer lies in 1..gap.  The search doubles hi from 1 until the excess at hi
    reaches the gap, then bisects over (hi/2, hi], so no n past twice the
    answer is evaluated (the binomials grow with n); the assert re-checks
    that the answer is the least.
    """
    def excess(n: int) -> int:
        return (dim_classifying(n, query.degree, Fiber.SPECIAL)
                - dim_classifying(n, query.degree, Fiber.GENERIC))

    hi = 1
    while excess(hi) < query.gap:
        hi *= 2
    lo = hi // 2
    n = lo + 1 + bisect.bisect_left(range(lo + 1, hi + 1), query.gap, key=excess)
    assert (excess(n - 1) if n > 1 else 0) < query.gap <= excess(n), \
        "dimension excess is not monotone in n"
    return n


def fiber_jump(n: int, degree: int, bundle_dim: int | None = None) -> int:
    """Special-minus-generic total dimension after the projective-bundle sum.

    bundle_dim defaults to the stabilized value floor(degree/2).
    """
    return jump_certificate(n, degree, bundle_dim).jump


class JumpTerm:
    """One even-shift summand: both fiber dimensions in a single degree."""

    __slots__ = ("degree", "special", "generic")

    def __init__(self, degree: int, special: int, generic: int):
        self.degree = degree
        self.special = special
        self.generic = generic

    @property
    def dominated(self) -> bool:
        return self.special >= self.generic


class JumpCertificate:
    """Termwise comparison of the two projective-bundle sums.

    The jump being >= the degree-leading excess is not taken on faith: the
    certificate records every summand pair and `ok` demands that the special
    dimension dominates the generic one in each of them.
    """

    __slots__ = ("n", "degree", "bundle_dim", "terms")

    def __init__(self, n: int, degree: int, bundle_dim: int, terms: tuple[JumpTerm, ...]):
        self.n = n
        self.degree = degree
        self.bundle_dim = bundle_dim
        self.terms = terms

    @property
    def special_total(self) -> int:
        return sum(term.special for term in self.terms)

    @property
    def generic_total(self) -> int:
        return sum(term.generic for term in self.terms)

    @property
    def jump(self) -> int:
        return self.special_total - self.generic_total

    @property
    def ok(self) -> bool:
        return all(term.dominated for term in self.terms)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "degree": self.degree,
            "bundle_dim": self.bundle_dim,
            "terms": [
                {"degree": term.degree,
                 "special": term.special,
                 "generic": term.generic,
                 "dominated": term.dominated}
                for term in self.terms
            ],
            "special_total": self.special_total,
            "generic_total": self.generic_total,
            "jump": self.jump,
            "termwise_dominated": self.ok,
        }


def jump_certificate(n: int, degree: int, bundle_dim: int | None = None) -> JumpCertificate:
    if n < 1:
        raise UnsupportedParametersError("need at least one product factor")
    if degree < 0:
        raise UnsupportedParametersError("cohomological degree must be >= 0")
    if bundle_dim is None:
        bundle_dim = stabilized_bundle_dim(degree)
    if bundle_dim < 0:
        raise UnsupportedParametersError("bundle dimension must be >= 0")
    terms = tuple(
        JumpTerm(degree - 2 * j,
                 dim_classifying(n, degree - 2 * j, Fiber.SPECIAL),
                 dim_classifying(n, degree - 2 * j, Fiber.GENERIC))
        for j in range(min(bundle_dim, degree // 2) + 1))
    return JumpCertificate(n, degree, bundle_dim, terms)


class ConvolutionCheck:
    __slots__ = ("fiber", "degree", "convolution", "binomial")

    def __init__(self, fiber: Fiber, degree: int, convolution: int, binomial: int):
        self.fiber = fiber
        self.degree = degree
        self.convolution = convolution
        self.binomial = binomial

    @property
    def match(self) -> bool:
        return self.convolution == self.binomial


class ConvolutionReport:
    """Closed-form binomials checked against an independent convolution build."""

    __slots__ = ("n", "max_degree", "entries")

    def __init__(self, n: int, max_degree: int, entries: tuple[ConvolutionCheck, ...]):
        self.n = n
        self.max_degree = max_degree
        self.entries = entries

    @property
    def ok(self) -> bool:
        return all(entry.match for entry in self.entries)

    def mismatches(self) -> list[ConvolutionCheck]:
        return [entry for entry in self.entries if not entry.match]

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "max_degree": self.max_degree,
            "ok": self.ok,
            "entries": [
                {"fiber": entry.fiber.value,
                 "degree": entry.degree,
                 "convolution": entry.convolution,
                 "binomial": entry.binomial,
                 "match": entry.match}
                for entry in self.entries
            ],
        }


def verify_binomial_vs_kunneth(n: int, max_degree: int,
                               binomials=None) -> ConvolutionReport:
    """Cross-check dim_classifying against convolution of all-ones series.

    The convolution side never evaluates a binomial.  The generic column is the
    n-fold Kunneth power of the single-factor series.  Convolving a series with
    the all-ones series gives its running sum, so that power is built as
    n - 1 running sums of the single factor.  The special fiber has 2n
    factors, so its column is the Kunneth square of the generic one.

    binomials, when given, maps each Fiber to its closed-form column for
    degrees 0..max_degree, as a caller that already evaluated
    dim_classifying holds it; the report then certifies exactly those
    numbers.  When omitted, dim_classifying is evaluated once per entry.
    """
    if n < 1:
        raise UnsupportedParametersError("need at least one product factor")
    if max_degree < 0:
        raise UnsupportedParametersError("truncation degree must be >= 0")
    if binomials is None:
        binomials = {fiber: [dim_classifying(n, i, fiber) for i in range(max_degree + 1)]
                     for fiber in (Fiber.GENERIC, Fiber.SPECIAL)}
    elif any(len(binomials[fiber]) != max_degree + 1
             for fiber in (Fiber.GENERIC, Fiber.SPECIAL)):
        raise UnsupportedParametersError(
            f"binomial columns must have {max_degree + 1} entries, degrees 0..{max_degree}")
    column = _all_ones(max_degree).coefficients
    for _ in range(n - 1):
        column = itertools.accumulate(column)
    generic = PoincareSeries(column)
    special = kunneth(generic, generic)
    return ConvolutionReport(n, max_degree, tuple(
        ConvolutionCheck(fiber, i, dim, binomial)
        for fiber, power in ((Fiber.GENERIC, generic), (Fiber.SPECIAL, special))
        for i, (dim, binomial) in enumerate(zip(power.coefficients, binomials[fiber]))))


def dimension_table(max_n: int, max_degree: int) -> list[dict]:
    """Rows (n, i, fiber, dim) for every cell, plus a gap row per (n, i).

    The rows run over n, then i, and give generic, special and gap for each
    (n, i) in that order; table_binomials reads them by that order.
    """
    if max_n < 1:
        raise UnsupportedParametersError("need at least one product factor")
    if max_degree < 0:
        raise UnsupportedParametersError("truncation degree must be >= 0")
    rows = []
    for n in range(1, max_n + 1):
        for i in range(max_degree + 1):
            generic = dim_classifying(n, i, Fiber.GENERIC)
            special = dim_classifying(n, i, Fiber.SPECIAL)
            rows.append({"n": n, "i": i, "fiber": "generic", "dim": generic})
            rows.append({"n": n, "i": i, "fiber": "special", "dim": special})
            rows.append({"n": n, "i": i, "fiber": "gap", "dim": special - generic})
    return rows


def table_binomials(rows: list[dict], max_degree: int):
    """Each n's closed-form columns in dimension_table(max_n, max_degree)'s
    rows, for n = 1..max_n, as verify_binomial_vs_kunneth's binomials."""
    dims = [row["dim"] for row in rows]
    stride = 3 * (max_degree + 1)
    for start in range(0, len(dims), stride):
        yield {Fiber.GENERIC: dims[start:start + stride:3],
               Fiber.SPECIAL: dims[start + 1:start + stride:3]}
