"""Command-line front end for the verification pipeline and the dimension tools.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 guard exceeded.
Output formats: pretty (default), json, csv (tables only); the default can be
set through the HOPFDEFORM_FORMAT environment variable.  JSON output carries a
"schema" version field and is byte-stable for identical inputs and seeds, so
timings appear only in the pretty rendering.

The command line is declared once, in MAIN_OPTIONS and COMMANDS: flag, type,
choices, required, default, store_true and help of every option.  main reads
argv from that table directly when argv has the plain form (main options,
a command, its options, each an exact flag followed by its value), and only
otherwise builds the argparse parser from the same table (build_parser), so
that --help, abbreviated or `--flag=value` forms, negative values and every
usage error are handled by argparse exactly as before.  A successful command
of the plain form never imports argparse; csv is imported only to render csv.
"""

from __future__ import annotations

import io
import itertools
import operator
import os
import re
import sys
import time
import types
from collections.abc import Iterable

try:
    # The C function json.encoder uses, without loading the json package.
    from _json import encode_basestring_ascii
except ImportError:
    from json.encoder import encode_basestring_ascii

from .action import (
    DEFAULT_SEED,
    describe_test_algebra,
    enumerate_action_points,
    free_locus_hyperplane_check,
    is_action,
    universal_leading_coefficient_identity,
)
from .algebra import MonomialQuotientAlgebra
from .cohomology import (
    JumpQuery,
    dimension_table,
    jump_certificate,
    minimal_n_for_jump,
    table_binomials,
    verify_binomial_vs_kunneth,
)
from .errors import (
    GuardExceeded,
    NonUnitError,
    NotAHopfIdealError,
    NotFreeQuotientError,
    NotInvertibleError,
    RelationViolationError,
    SizeGuardError,
    UnsupportedParametersError,
)
from .hopf import (
    MUTATIONS,
    catalog_build,
    catalog_dual,
    checked_structure,
    deformation_hopf,
    double_dual_report,
    exhibit_isomorphism,
    generic_grouplike,
    grouplike_order,
    hopf_quotient,
    iso_constant_to_dual_generic,
    iso_mu_to_generic,
    iso_special_to_alpha_product,
    presentation_to_json,
    specialize_hopf,
    verify_axioms,
)
from .rings import Fiber, PrimeField, is_prime

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_GUARD = 3

FORMAT_ENV_VAR = "HOPFDEFORM_FORMAT"
FORMATS = ("pretty", "json", "csv")

# primes the verification pipeline accepts; 5 only behind --slow
FAST_PRIMES = (2, 3)
MAX_PIPELINE_PRIME = 5
MAX_TABLE_N = 32
MAX_TABLE_DEGREE = 200
MAX_JUMP_GAP = 10**6
MAX_JUMP_DEGREE = 1000

VERIFY_STEPS = (
    "build",
    "axioms-base-ring",
    "special-fiber-axioms",
    "generic-fiber-axioms",
    "special-product-split",
    "generic-grouplike-order",
    "generic-multiplicative",
    "generic-dual-constant",
    "quotient-by-x",
)

# library failures a pipeline step may legitimately surface
_STEP_ERRORS = (
    UnsupportedParametersError,
    NonUnitError,
    NotInvertibleError,
    RelationViolationError,
    NotAHopfIdealError,
    NotFreeQuotientError,
)


class UsageError(Exception):
    """Bad invocation; rendered to stderr with exit code 2."""


def _check_pipeline_prime(p: int, slow: bool) -> None:
    if not is_prime(p):
        raise UsageError(f"p = {p} is not prime")
    if p > MAX_PIPELINE_PRIME:
        raise SizeGuardError(
            f"refusing p = {p}: the pipeline works with rank p^4 tensors and is "
            f"bounded at p <= {MAX_PIPELINE_PRIME}")
    if p > max(FAST_PRIMES) and not slow:
        raise UsageError(
            f"p = {p} is outside the default primes "
            f"{', '.join(map(str, FAST_PRIMES))}; pass --slow to run it")


_ALGEBRA_PATTERN = re.compile(r"^F(\d+)(?:\[([^\[\]]*)\]/\(([^()]*)\))?$")
_NAME_PATTERN = re.compile(r"^[A-Za-z][A-Za-z0-9]*$")
_GRAMMAR_HINT = (
    "test algebras look like F2, F3[e]/(e^3), or F2[e,d]/(e^2,d^2): "
    "a prime field, optional nilpotent generators, and one power relation "
    "g^k with k >= 2 for each generator")


def parse_test_algebra(text: str) -> MonomialQuotientAlgebra:
    """Parse the mini-grammar Fp[g,...]/(g^k,...) into a coefficient algebra."""
    m = _ALGEBRA_PATTERN.match(text.replace(" ", ""))
    if m is None:
        raise UsageError(f"cannot parse test algebra {text!r}; {_GRAMMAR_HINT}")
    q = int(m.group(1))
    if not is_prime(q):
        raise UsageError(f"test algebra characteristic {q} is not prime")
    field = PrimeField(q)
    if m.group(2) is None:
        return MonomialQuotientAlgebra(field, (), (), ())
    gens = m.group(2).split(",")
    if not all(_NAME_PATTERN.match(g) for g in gens):
        raise UsageError(f"bad generator list in {text!r}; {_GRAMMAR_HINT}")
    if len(set(gens)) != len(gens):
        raise UsageError(f"repeated generator in {text!r}")
    bounds = {}
    for rel in m.group(3).split(","):
        name, caret, power = rel.partition("^")
        if caret != "^" or not power.isdigit() or name not in gens:
            raise UsageError(f"cannot parse relation {rel!r} in {text!r}; {_GRAMMAR_HINT}")
        if int(power) < 2:
            raise UsageError(f"relation {rel!r} needs exponent >= 2")
        if name in bounds:
            raise UsageError(f"two relations for generator {name!r} in {text!r}")
        bounds[name] = int(power)
    missing = [g for g in gens if g not in bounds]
    if missing:
        raise UsageError(f"no relation for generator {missing[0]!r} in {text!r}")
    return MonomialQuotientAlgebra(
        field, tuple(gens), tuple(bounds[g] for g in gens), [{} for _ in gens])


# ---------------------------------------------------------------------------
# verify


def run_verify(args):
    _check_pipeline_prime(args.p, args.slow)
    if args.mutate is not None and args.mutate not in MUTATIONS:
        raise UsageError(f"unknown mutation {args.mutate!r}")
    p = args.p
    steps = []
    timings = {}
    state = {}

    def step(name, fn):
        if any(s["status"] == "failed" for s in steps):
            steps.append({"name": name, "status": "skipped", "detail": ""})
            return
        start = time.perf_counter()
        try:
            detail = fn()
        except _STEP_ERRORS as exc:
            detail = f"{type(exc).__name__}: {exc}"
        timings[name] = time.perf_counter() - start
        steps.append({
            "name": name,
            "status": "passed" if detail is None else "failed",
            "detail": detail or "",
        })

    def build():
        state["h"] = deformation_hopf(p, mutation=args.mutate)

    def axioms_base():
        report = verify_axioms(state["h"])
        if not report.ok:
            bad = [c for c in report.failures() if c.required][0]
            return f"{bad.name}: {bad.detail}"

    def special_axioms():
        state["sp"] = specialize_hopf(state["h"], Fiber.SPECIAL)
        # Checked twice (here and in special_split), converted once.
        state["sp_checked"] = checked_structure(state["sp"])
        report = verify_axioms(state["sp_checked"])
        if not report.ok:
            return report.summary()

    def generic_axioms():
        state["ge"] = specialize_hopf(state["h"], Fiber.GENERIC)
        # Checked twice (here and in generic_multiplicative), converted once.
        state["ge_checked"] = checked_structure(state["ge"])
        report = verify_axioms(state["ge_checked"])
        if not report.ok:
            return report.summary()

    def special_split():
        target, phi = iso_special_to_alpha_product(state["sp"])
        report = exhibit_isomorphism(state["sp_checked"], target, phi)
        if not report.ok:
            return report.summary()

    def grouplike_step():
        ge = state["ge"]
        order = grouplike_order(ge, generic_grouplike(ge))
        if order != p * p:
            return f"1 + t*y has order {order}, expected {p * p}"

    def generic_multiplicative():
        mu, phi = iso_mu_to_generic(state["ge"])
        report = exhibit_isomorphism(mu, state["ge_checked"], phi)
        if not report.ok:
            return report.summary()

    def generic_dual():
        const, dual, phi = iso_constant_to_dual_generic(state["ge"])
        report = exhibit_isomorphism(const, dual, phi)
        if not report.ok:
            return report.summary()

    def quotient_step():
        h = state["h"]
        q = hopf_quotient(h, [h.algebra.gen(0)])
        if q.algebra.rank != p:
            return f"quotient has rank {q.algebra.rank}, expected {p}"
        report = verify_axioms(q)
        if not report.ok:
            return report.summary()
        A, sq = q.algebra, q.square
        one, y, t = A.one(), A.gen(0), A.ring.t()
        expected = (sq.pure_tensor(one, y) + sq.pure_tensor(y, one)
                    + sq.pure_tensor(y, y) * t)
        if q.comul_images[0] != expected:
            return (f"quotient comultiplication sends y to {q.comul_images[0]}, "
                    f"expected {expected}")

    for name, fn in zip(VERIFY_STEPS, (
            build, axioms_base, special_axioms, generic_axioms, special_split,
            grouplike_step, generic_multiplicative, generic_dual, quotient_step)):
        step(name, fn)

    ok = all(s["status"] == "passed" for s in steps)
    payload = {
        "schema": 1,
        "command": "verify",
        "p": p,
        "slow": bool(args.slow),
        "mutation": args.mutate,
        "steps": steps,
        "ok": ok,
    }

    lines = [f"deformation verification at p = {p}"
             + (f" (mutation: {args.mutate})" if args.mutate else "")]
    for s in steps:
        if s["status"] == "skipped":
            lines.append(f"  [skip] {s['name']}")
            continue
        mark = "pass" if s["status"] == "passed" else "FAIL"
        timing = f"  ({timings[s['name']]:.3f} s)"
        lines.append(f"  [{mark}] {s['name']}{timing}")
        if s["detail"]:
            lines.append(f"         {s['detail']}")
    if ok:
        lines.append(f"all {len(steps)} steps passed")
    else:
        first = next(s for s in steps if s["status"] == "failed")
        lines.append(f"verification failed at step '{first['name']}'")
    return (EXIT_OK if ok else EXIT_VERIFICATION), payload, lines, None


# ---------------------------------------------------------------------------
# dual


def run_dual(args):
    _check_pipeline_prime(args.p, slow=True)
    fiber = Fiber.SPECIAL if args.fiber == "special" else Fiber.GENERIC
    try:
        entry = catalog_build(args.name, args.p, args.power, fiber)
    except UnsupportedParametersError as exc:
        raise UsageError(str(exc))

    partner, dual, phi = catalog_dual(entry)
    reports = {
        f"dual-is-{partner.name}": exhibit_isomorphism(partner.checked, dual, phi),
        "double-dual-canonical": double_dual_report(entry.checked, dual),
    }
    checks = [{"name": name, "passed": r.ok, "detail": "" if r.ok else r.summary()}
              for name, r in reports.items()]

    ok = all(c["passed"] for c in checks)
    payload = {
        "schema": 1,
        "command": "dual",
        "p": args.p,
        "power": args.power,
        "fiber": args.fiber,
        "entry": args.name,
        "order": entry.order,
        "dual": partner.name,
        "checks": checks,
        "ok": ok,
    }
    lines = [f"Cartier duality for {args.name} (order {entry.order}, "
             f"{args.fiber} fiber, p = {args.p})"]
    for c in checks:
        mark = "pass" if c["passed"] else "FAIL"
        lines.append(f"  [{mark}] {c['name']}")
        if c["detail"]:
            lines.append(f"         {c['detail']}")
    return (EXIT_OK if ok else EXIT_VERIFICATION), payload, lines, None


# ---------------------------------------------------------------------------
# quotient


def run_quotient(args):
    _check_pipeline_prime(args.p, args.slow)
    h = deformation_hopf(args.p)
    names = [g.strip() for g in args.kill.split(",") if g.strip()]
    if not names:
        raise UsageError("nothing to quotient by; pass --kill x or --kill x,y")
    index = {g: i for i, g in enumerate(h.algebra.gens)}
    unknown = [g for g in names if g not in index]
    if unknown:
        raise UsageError(
            f"unknown generator {unknown[0]!r}; the deformation has generators "
            + ", ".join(h.algebra.gens))
    ideal = [h.algebra.gen(index[g]) for g in names]

    try:
        q = hopf_quotient(h, ideal)
    except (NotAHopfIdealError, NotFreeQuotientError) as exc:
        payload = {
            "schema": 1,
            "command": "quotient",
            "p": args.p,
            "ideal": names,
            "ok": False,
            "error": {"kind": type(exc).__name__, "detail": str(exc)},
        }
        lines = [f"quotient of the rank-{args.p**2} deformation by ({', '.join(names)})",
                 f"  [FAIL] {type(exc).__name__}: {exc}"]
        return EXIT_VERIFICATION, payload, lines, None

    report = verify_axioms(q)
    payload = {
        "schema": 1,
        "command": "quotient",
        "p": args.p,
        "ideal": names,
        "ok": report.ok,
        "rank": q.algebra.rank,
        "axioms": report.to_dict(),
        "presentation": presentation_to_json(q),
    }
    lines = [f"quotient of the rank-{args.p**2} deformation by ({', '.join(names)})",
             f"  rank {q.algebra.rank}, axioms "
             + ("verified" if report.ok else "FAILED: " + report.summary())]
    pres = payload["presentation"]
    for g in pres["generators"]:
        lines.append(f"  {g}^{dict(zip(pres['generators'], pres['bounds']))[g]}"
                     f" = {pres['rules'][g]}")
        lines.append(f"  comultiplication: {g} -> {pres['comultiplication'][g]}")
    return (EXIT_OK if report.ok else EXIT_VERIFICATION), payload, lines, None


# ---------------------------------------------------------------------------
# cohomology-table


def run_cohomology_table(args):
    if args.max_n < 1:
        raise UsageError("--max-n must be >= 1")
    if args.max_degree < 0:
        raise UsageError("--max-degree must be >= 0")
    if args.max_n > MAX_TABLE_N:
        raise SizeGuardError(f"--max-n {args.max_n} exceeds the bound {MAX_TABLE_N}")
    if args.max_degree > MAX_TABLE_DEGREE:
        raise SizeGuardError(
            f"--max-degree {args.max_degree} exceeds the bound {MAX_TABLE_DEGREE}")

    # The cross-check certifies the printed cells: its binomial side is read
    # from the table's rows, so each closed form is evaluated once.
    rows = dimension_table(args.max_n, args.max_degree)
    crosscheck_cells = 0
    mismatches = []
    for n, binomials in enumerate(table_binomials(rows, args.max_degree), 1):
        report = verify_binomial_vs_kunneth(n, args.max_degree, binomials)
        crosscheck_cells += len(report.entries)
        mismatches.extend(
            {"n": n, "i": entry.degree, "fiber": entry.fiber.value,
             "convolution": entry.convolution, "binomial": entry.binomial}
            for entry in report.mismatches())

    if args.fiber != "both":
        rows = [r for r in rows if r["fiber"] == args.fiber]

    ok = not mismatches
    payload = {
        "schema": 1,
        "command": "cohomology-table",
        "max_n": args.max_n,
        "max_degree": args.max_degree,
        "fiber": args.fiber,
        "crosscheck": {"ok": ok, "cells": crosscheck_cells, "mismatches": mismatches},
        "rows": rows,
    }

    title = (f"classifying-stack dimensions for n <= {args.max_n}, "
             f"degree <= {args.max_degree} ({args.fiber})",
             f"convolution crosscheck: {crosscheck_cells} cells, "
             + ("all match" if ok else f"{len(mismatches)} MISMATCHES"))
    # Both renderings are generators: only the one the format asks for is built.
    csv_rows = itertools.chain([("n", "i", "fiber", "dim")],
                               ((r["n"], r["i"], r["fiber"], r["dim"]) for r in rows))
    return (EXIT_OK if ok else EXIT_VERIFICATION), payload, _table_lines(title, rows), csv_rows


def _table_lines(title, rows):
    yield from title
    width = max(len(str(r["dim"])) for r in rows)
    yield f"  {'n':>3} {'i':>3} {'fiber':>8} {'dim':>{width + 2}}"
    for r in rows:
        yield f"  {r['n']:>3} {r['i']:>3} {r['fiber']:>8} {r['dim']:>{width + 2}}"


# ---------------------------------------------------------------------------
# jump


def run_jump(args):
    if args.gap < 1 or args.degree < 1:
        raise UsageError("--gap and --degree must both be >= 1")
    if args.bundle_dim is not None and args.bundle_dim < 0:
        raise UsageError("--bundle-dim must be >= 0")
    if args.gap > MAX_JUMP_GAP:
        raise SizeGuardError(f"--gap {args.gap} exceeds the bound {MAX_JUMP_GAP}")
    if args.degree > MAX_JUMP_DEGREE:
        raise SizeGuardError(
            f"--degree {args.degree} exceeds the bound {MAX_JUMP_DEGREE}")

    n = minimal_n_for_jump(JumpQuery(args.gap, args.degree))
    cert = jump_certificate(n, args.degree, args.bundle_dim)
    special, generic = cert.terms[0].special, cert.terms[0].generic

    ok = special >= generic + args.gap and cert.ok and cert.jump >= args.gap
    payload = {
        "schema": 1,
        "command": "jump",
        "gap": args.gap,
        "degree": args.degree,
        "bundle_dim": cert.bundle_dim,
        "stabilized": args.bundle_dim is None,
        "minimal_n": n,
        "special_dim": special,
        "generic_dim": generic,
        "required": generic + args.gap,
        "fiber_jump": cert.jump,
        "certificate": cert.to_dict(),
        "ok": ok,
    }
    lines = [
        f"requested gap {args.gap} in degree {args.degree}: minimal n = {n}",
        f"  special dimension {special} >= {generic} + {args.gap} = "
        f"generic + gap: {'holds' if special >= generic + args.gap else 'FAILS'}",
        f"  bundle dimension {cert.bundle_dim}"
        + (" (stabilized)" if args.bundle_dim is None else ""),
        f"  fiber jump after the even-shift sum: {cert.special_total} - "
        f"{cert.generic_total} = {cert.jump} >= {args.gap}: "
        + ("holds" if cert.jump >= args.gap else "FAILS"),
        "  termwise domination: "
        + ("every summand dominates" if cert.ok else "VIOLATED"),
    ]
    for term in cert.terms:
        lines.append(f"    degree {term.degree}: special {term.special} >= "
                     f"generic {term.generic}")
    return (EXIT_OK if ok else EXIT_VERIFICATION), payload, lines, None


# ---------------------------------------------------------------------------
# free-locus


def run_free_locus(args):
    if args.n < 1:
        raise UsageError("--n must be >= 1")
    if args.trials is not None and args.trials < 1:
        raise UsageError("--trials must be >= 1")
    _check_pipeline_prime(args.p, slow=True)
    B = parse_test_algebra(args.test_algebra)
    if B.ring.p != args.p:
        raise UsageError(
            f"test algebra {args.test_algebra!r} has characteristic {B.ring.p} "
            f"but --p is {args.p}")

    # both checks run over the same points, enumerated once
    points = enumerate_action_points(args.p, args.n, B)
    action_ok = is_action(args.p, args.n, B, seed=args.seed, points=points)
    report = free_locus_hyperplane_check(
        args.p, args.n, B, trials=args.trials, seed=args.seed, points=points)

    try:
        cert = universal_leading_coefficient_identity(args.p, args.n)
        identity = cert.to_dict()
        identity_ok = cert.ok
    except GuardExceeded as exc:
        identity = {"skipped": f"{type(exc).__name__}: {exc}"}
        identity_ok = True

    ok = action_ok and report.ok and identity_ok
    payload = {
        "schema": 1,
        "command": "free-locus",
        "p": args.p,
        "n": args.n,
        "test_algebra": describe_test_algebra(B),
        "seed": args.seed,
        "action_law_ok": action_ok,
        "free_locus": report.to_dict(),
        "symbolic_identity": identity,
        "ok": ok,
    }
    lines = [f"free-locus checks at p = {args.p}, n = {args.n} over "
             + describe_test_algebra(B),
             f"  [{'pass' if action_ok else 'FAIL'}] translation action laws "
             f"(seed {args.seed})",
             f"  [{'pass' if report.ok else 'FAIL'}] hyperplane stabilizers: "
             f"{report.mode}, {report.trials} polynomials over {report.points} "
             f"points, {len(report.failures)} non-free"]
    if "skipped" in identity:
        lines.append(f"  [skip] symbolic leading-coefficient identity: "
                     f"{identity['skipped']}")
    else:
        count = len(identity["directions"])
        plural = "s" if count != 1 else ""
        lines.append(f"  [{'pass' if identity_ok else 'FAIL'}] symbolic "
                     f"leading-coefficient identity in {count} direction{plural}")
    return (EXIT_OK if ok else EXIT_VERIFICATION), payload, lines, None


# ---------------------------------------------------------------------------
# plumbing


HANDLERS = {
    "verify": run_verify,
    "dual": run_dual,
    "quotient": run_quotient,
    "cohomology-table": run_cohomology_table,
    "jump": run_jump,
    "free-locus": run_free_locus,
}


# The command line as one table: argparse keyword arguments by flag, for the
# main options and for each command's options, with "hidden" for an option
# that --help leaves out.  build_parser() is a loop over it; _direct_parse
# reads it without argparse.
MAIN_OPTIONS = {
    "--format": {"choices": FORMATS, "default": None,
                 "help": "output format (csv is table-only)"},
    "--output": {"metavar": "PATH", "default": None,
                 "help": "write output to a file instead of stdout"},
}

COMMANDS = {
    "verify": ("run the full verification pipeline", {
        "--p": {"type": int, "required": True,
                "help": "prime characteristic (2 or 3; 5 with --slow)"},
        "--slow": {"action": "store_true", "help": "allow the p = 5 run (about 1 s)"},
        "--mutate": {"default": None, "hidden": True},
    }),
    "dual": ("Cartier duals of catalog entries", {
        "--p": {"type": int, "required": True},
        "--name": {"required": True, "choices": ("alpha_p", "mu", "constant_cyclic")},
        "--power": {"type": int, "default": 1,
                    "help": "order exponent k (order p^k) where applicable"},
        "--fiber": {"choices": ("special", "generic"), "default": "special"},
    }),
    "quotient": ("quotient the deformation by generator ideals", {
        "--p": {"type": int, "required": True},
        "--kill": {"required": True, "help": "comma-separated generators, e.g. --kill x"},
        "--slow": {"action": "store_true"},
    }),
    "cohomology-table": ("classifying-stack dimension tables", {
        "--max-n": {"type": int, "default": 6},
        "--max-degree": {"type": int, "default": 20},
        "--fiber": {"choices": ("generic", "special", "both"), "default": "both"},
    }),
    "jump": ("solve for the minimal n reaching a dimension gap", {
        "--gap": {"type": int, "required": True, "help": "required dimension gap (>= 1)"},
        "--degree": {"type": int, "required": True, "help": "cohomological degree (>= 1)"},
        "--bundle-dim": {"type": int, "default": None,
                         "help": "projective bundle dimension (default: stabilized)"},
    }),
    "free-locus": ("stabilizer and leading-coefficient checks", {
        "--p": {"type": int, "required": True},
        "--n": {"type": int, "required": True},
        "--test-algebra": {"required": True, "help": "coefficient algebra, e.g. F2[e]/(e^2)"},
        "--trials": {"type": int, "default": None,
                     "help": "random trials (default: exhaustive)"},
        "--seed": {"type": int, "default": DEFAULT_SEED},
    }),
}


def build_parser():
    """The argparse parser of the option table; main builds it only for the
    command lines _direct_parse declines, so that argparse parses them, prints
    --help or prints the usage error."""
    import argparse

    def add_options(parser, options):
        for flag, spec in options.items():
            kwargs = dict(spec)
            if kwargs.pop("hidden", False):
                kwargs["help"] = argparse.SUPPRESS
            parser.add_argument(flag, **kwargs)

    parser = argparse.ArgumentParser(
        prog="hopfdeform",
        description="Exact verification of the rank-p^2 Hopf algebra deformation "
                    "and its dimension calculus.",
        epilog=f"Default output format comes from {FORMAT_ENV_VAR} when set. "
               f"Test algebra grammar: {_GRAMMAR_HINT}.")
    add_options(parser, MAIN_OPTIONS)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, options) in COMMANDS.items():
        add_options(sub.add_parser(command, help=summary), options)
    return parser


def _read_options(argv, start, options, values) -> int:
    """Read argv[start:] as exact flags of options into values, by dest.

    A store_true flag stands alone; any other flag takes the next token as
    its value, which must not start with '-' and must pass the flag's type
    and choices.  Returns the index of the first token that is not a flag of
    options, or -1 when a value is missing or bad.
    """
    i = start
    while i < len(argv):
        spec = options.get(argv[i])
        if spec is None:
            return i
        dest = argv[i][2:].replace("-", "_")
        if spec.get("action") == "store_true":
            values[dest] = True
            i += 1
            continue
        if i + 1 == len(argv) or argv[i + 1].startswith("-"):
            return -1
        try:
            value = spec.get("type", str)(argv[i + 1])
        except ValueError:
            return -1
        choices = spec.get("choices")
        if choices is not None and value not in choices:
            return -1
        values[dest] = value
        i += 2
    return i


def _direct_parse(argv: list) -> types.SimpleNamespace | None:
    """What build_parser().parse_args(argv) returns, read from the option
    table without argparse, or None for any argv but the plain form.

    The plain form is main options, each an exact flag with its value, then a
    command, then that command's options the same way, with every required
    option present; unset options take their table defaults.  A repeated
    flag keeps its last value, as in argparse.  Everything else (help,
    abbreviated flags, --flag=value, values starting with '-', '--', unknown
    or misplaced flags, bad values, missing options) returns None, and
    argparse reads it exactly as it would without this parse.
    """
    values = {}
    i = _read_options(argv, 0, MAIN_OPTIONS, values)
    if not 0 <= i < len(argv) or argv[i] not in COMMANDS:
        return None
    values["command"] = command = argv[i]
    options = COMMANDS[command][1]
    if _read_options(argv, i + 1, options, values) != len(argv):
        return None
    for flag, spec in itertools.chain(MAIN_OPTIONS.items(), options.items()):
        dest = flag[2:].replace("-", "_")
        if dest not in values:
            if spec.get("required"):
                return None
            values[dest] = spec.get("default",
                                    False if spec.get("action") == "store_true" else None)
    return types.SimpleNamespace(**values)


def resolve_format(args) -> str:
    if args.format is not None:
        return args.format
    env = os.environ.get(FORMAT_ENV_VAR)
    if env is None or env == "":
        return "pretty"
    if env not in FORMATS:
        raise UsageError(
            f"{FORMAT_ENV_VAR}={env!r} is not a format; choose one of "
            + ", ".join(FORMATS))
    return env


def render(fmt: str, payload: dict, lines: Iterable[str], csv_rows) -> str:
    if fmt == "json":
        return _json_text(payload, "\n", {}) + "\n"
    if fmt == "csv":
        import csv

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerows(csv_rows)
        return buf.getvalue()
    return "\n".join(lines) + "\n"


# Encoders of the scalars a payload holds, by exact type.
_JSON_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


# Column types a list of records may hold for _json_records.
_RECORD_COLUMNS = {t: _JSON_SCALARS[t] for t in (int, str, bool)}


def _json_records(items, inner: str, heads: dict):
    """The encoded items of a list of uniform records, or None.

    A list qualifies when its items are non-empty dicts with one shared set
    of str keys and each key's values share one exact type: int, str or
    bool.  Its columns are then encoded with map and each row fills one
    '%' template.  The first item is looked at alone before any other, so
    most lists that do not qualify cost one short check.
    """
    first = items[0]
    if (type(first) is not dict or not first
            or not all(type(key) is str for key in first)
            or not all(type(v) in _RECORD_COLUMNS for v in first.values())):
        return None
    if set(map(type, items)) != {dict}:
        return None
    if not all(map(first.keys().__eq__, map(dict.keys, items))):
        return None
    keys = sorted(first)
    columns = []
    for key in keys:
        column = list(map(operator.itemgetter(key), items))
        types = set(map(type, column))
        if len(types) != 1:
            return None
        columns.append(map(_RECORD_COLUMNS[types.pop()], column))
    inner2 = inner + "  "
    for key in keys:
        if key not in heads:
            heads[key] = encode_basestring_ascii(key) + ": "
    template = ("{" + inner2
                + ("," + inner2).join(heads[key].replace("%", "%%") + "%s" for key in keys)
                + inner + "}")
    return map(template.__mod__, zip(*columns))


def _json_text(value, newline: str, heads: dict) -> str:
    """json.dumps(value, indent=2, sort_keys=True), byte for byte, for what the
    commands put in a payload: dicts with str keys, lists, tuples, str, int,
    True, False and None.  Anything else is a TypeError.

    The indented form of json.dumps runs in the pure-Python encoder; this
    writer emits the same text with less work per value.  newline is the
    line break and indentation in front of the value's closing bracket, and
    heads maps each key seen so far to its encoded '"key": ' prefix.
    """
    encode = _JSON_SCALARS.get(type(value))
    if encode is not None:
        return encode(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + "  "
        out = []
        for key in sorted(value):
            head = heads.get(key)
            if head is None:
                if not isinstance(key, str):
                    raise TypeError(f"keys must be str, not {type(key).__name__}")
                head = heads[key] = encode_basestring_ascii(key) + ": "
            item = value[key]
            encode = _JSON_SCALARS.get(type(item))
            out.append(head + (encode(item) if encode is not None
                               else _json_text(item, inner, heads)))
        return "{" + inner + ("," + inner).join(out) + newline + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = newline + "  "
        records = _json_records(value, inner, heads)
        if records is not None:
            return "[" + inner + ("," + inner).join(records) + newline + "]"
        out = []
        for item in value:
            encode = _JSON_SCALARS.get(type(item))
            out.append(encode(item) if encode is not None else _json_text(item, inner, heads))
        return "[" + inner + ("," + inner).join(out) + newline + "]"
    # Subclasses of str and int, which json.dumps also accepts.
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = _direct_parse(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        fmt = resolve_format(args)
        if fmt == "csv" and args.command != "cohomology-table":
            raise UsageError("csv output is only available for cohomology-table")
        code, payload, lines, csv_rows = HANDLERS[args.command](args)
        text = render(fmt, payload, lines, csv_rows)
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return code
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except GuardExceeded as exc:
        print(f"guard exceeded: {exc}", file=sys.stderr)
        return EXIT_GUARD


def entry() -> int:
    return main()


if __name__ == "__main__":
    sys.exit(main())
