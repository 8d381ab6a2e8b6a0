"""The benchmark's workloads: each job's argv and its known answer.

Known answers come from this file alone.  Exit codes and failing steps are
fixed by the CLI's documented exit codes and the built-in mutations;
dimension tables and jump solutions are recomputed from the closed forms
C(n+i-1, i) (generic fiber) and C(2n+i-1, i) (special fiber), never from
the package's convolution; free-locus counts are recomputed from the test
algebra.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass, field
from typing import Callable

WORKLOADS = ("pipeline", "free-locus", "tables")

VERIFY_STEPS = (
    "build", "axioms-base-ring", "special-fiber-axioms", "generic-fiber-axioms",
    "special-product-split", "generic-grouplike-order", "generic-multiplicative",
    "generic-dual-constant", "quotient-by-x",
)

EXIT_OK, EXIT_VERIFICATION, EXIT_GUARD = 0, 1, 3

# Every job of a workload except these runs in the smoke configuration.
_SLOW_JOBS = {
    "pipeline": {"verify-p3", "dual-p5-mu", "quotient-p5", "mutate-corrupt-antipode"},
    "free-locus": {"random-p3-n2"},
    "tables": {"table-json", "jump-gap1e6"},
}

# The job whose verdict time is reported as largest_verdict_s.
LARGEST_JOB = {"pipeline": "dual-p5-mu", "free-locus": "random-p3-n2",
               "tables": "table-json"}

JUMP_QUERIES = 20


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple[str, ...]
    exit_code: int
    # Checks the captured stdout of a run that exited with exit_code; returns
    # a description of the first disagreement, or None.
    check: Callable[[str], str | None] = field(compare=False)


def check_result(job: Job, code: int, stdout: str, stderr: str) -> str | None:
    """Compare one verdict with the job's known answer."""
    if code != job.exit_code:
        return f"exit code {code}, expected {job.exit_code}: {stderr.strip()[:200]}"
    return job.check(stdout)


def _first_difference(label: str, got, want) -> str | None:
    return None if got == want else f"{label}: got {got!r}, expected {want!r}"


# -- pipeline ---------------------------------------------------------------


def _verify_passes(p: int):
    def check(stdout):
        doc = json.loads(stdout)
        steps = [(s["name"], s["status"]) for s in doc["steps"]]
        return (_first_difference("steps", steps, [(s, "passed") for s in VERIFY_STEPS])
                or _first_difference("ok", (doc["p"], doc["ok"]), (p, True)))
    return check


def _verify_fails_at(step: str):
    def check(stdout):
        doc = json.loads(stdout)
        k = VERIFY_STEPS.index(step)
        want = ([(s, "passed") for s in VERIFY_STEPS[:k]] + [(step, "failed")]
                + [(s, "skipped") for s in VERIFY_STEPS[k + 1:]])
        steps = [(s["name"], s["status"]) for s in doc["steps"]]
        return (_first_difference("steps", steps, want)
                or _first_difference("ok", doc["ok"], False))
    return check


def _refused(stdout):
    return _first_difference("stdout of a refused verdict", stdout, "")


def _quotient_passes(p: int):
    def check(stdout):
        doc = json.loads(stdout)
        return _first_difference("quotient", (doc["ok"], doc["rank"], doc["ideal"]),
                                 (True, p, ["x"]))
    return check


def _dual_passes(p: int, power: int, dual: str):
    def check(stdout):
        doc = json.loads(stdout)
        got = (doc["ok"], doc["dual"], doc["order"], [c["passed"] for c in doc["checks"]])
        return _first_difference("dual", got, (True, dual, p**power, [True, True]))
    return check


def _pipeline_jobs() -> list[Job]:
    jobs = [
        Job("verify-p2", ("verify", "--p", "2"), EXIT_OK, _verify_passes(2)),
        Job("verify-p3", ("verify", "--p", "3"), EXIT_OK, _verify_passes(3)),
    ]
    # Each built-in mutation must fail at its own step.
    for mutation, step in (("drop-comul-t-term", "build"),
                           ("drop-comul-x-term", "build"),
                           ("corrupt-antipode", "axioms-base-ring")):
        jobs.append(Job(f"mutate-{mutation}", ("verify", "--p", "3", "--mutate", mutation),
                        EXIT_VERIFICATION, _verify_fails_at(step)))
    jobs += [
        Job("quotient-p3", ("quotient", "--p", "3", "--kill", "x"), EXIT_OK,
            _quotient_passes(3)),
        Job("quotient-p5", ("quotient", "--p", "5", "--kill", "x", "--slow"), EXIT_OK,
            _quotient_passes(5)),
        Job("dual-p3-mu", ("dual", "--p", "3", "--fiber", "generic", "--power", "2",
                           "--name", "mu"), EXIT_OK, _dual_passes(3, 2, "constant_cyclic")),
        Job("dual-p3-constant", ("dual", "--p", "3", "--fiber", "generic", "--power", "2",
                                 "--name", "constant_cyclic"), EXIT_OK,
            _dual_passes(3, 2, "mu")),
        # Stands in for `verify --p 5 --slow` (about a minute), which does not fit
        # a run: the same F_5(t) scalars, Cartier dual and inverse on rank 25.
        Job("dual-p5-mu", ("dual", "--p", "5", "--fiber", "generic", "--power", "2",
                           "--name", "mu"), EXIT_OK, _dual_passes(5, 2, "constant_cyclic")),
        Job("verify-p7", ("verify", "--p", "7"), EXIT_GUARD, _refused),
    ]
    return [Job(j.name, ("--format", "json") + j.argv, j.exit_code, j.check) for j in jobs]


# -- free-locus -------------------------------------------------------------


def _free_locus_passes(p: int, n: int, rank: int, trials: int | None, seed: int):
    # The test algebras are local with every relation g^k at k <= p, so
    # x -> x^p kills exactly the maximal ideal: |B| = p^rank, p^(rank-1)
    # nilpotents, p^rank - p^(rank-1) units.
    size, nilpotents = p**rank, p**(rank - 1)
    points = nilpotents**n
    if trials is None:
        mode, count = "exhaustive", size ** (p**n - 1) * (size - nilpotents)
    else:
        mode, count = "random", trials

    def check(stdout):
        doc = json.loads(stdout)
        fl = doc["free_locus"]
        got = (doc["ok"], doc["action_law_ok"], fl["failures"], fl["mode"], fl["trials"],
               fl["points"], doc["seed"], "skipped" in doc["symbolic_identity"])
        return _first_difference("free locus", got,
                                 (True, True, [], mode, count, points, seed, False))
    return check


def _free_locus_jobs(rng: random.Random) -> list[Job]:
    # At p = 3 the algebra is F3[e]/(e^2): over F3[e]/(e^3) the exhaustive
    # n = 1 search takes 3 to 5 s and the action-law check at n = 2 alone 6 s,
    # which would leave a 40 s run two or three passes.
    jobs = []
    for name, p, n, algebra, rank, trials in (
            ("exhaustive-p2-n2", 2, 2, "F2[e]/(e^2)", 2, None),
            ("exhaustive-p2-n1-ed", 2, 1, "F2[e,d]/(e^2,d^2)", 4, None),
            ("exhaustive-p3-n1", 3, 1, "F3[e]/(e^2)", 2, None),
            ("random-p3-n2", 3, 2, "F3[e]/(e^2)", 2, 1000),
            ("random-p5-n1", 5, 1, "F5[e]/(e^2)", 2, 200)):
        seed = rng.randrange(10**9)
        argv = ("--format", "json", "free-locus", "--p", str(p), "--n", str(n),
                "--test-algebra", algebra, "--seed", str(seed))
        if trials is not None:
            argv += ("--trials", str(trials))
        jobs.append(Job(name, argv, EXIT_OK,
                        _free_locus_passes(p, n, rank, trials, seed)))
    return jobs


# -- tables -----------------------------------------------------------------


def dim(n: int, i: int, fiber: str) -> int:
    """Closed form: C(n+i-1, i) on the generic fiber, C(2n+i-1, i) on the special."""
    m = n if fiber == "generic" else 2 * n
    return math.comb(m + i - 1, i)


def table_rows(max_n: int, max_degree: int) -> list[dict]:
    rows = []
    for n in range(1, max_n + 1):
        for i in range(max_degree + 1):
            g, s = dim(n, i, "generic"), dim(n, i, "special")
            rows += [{"n": n, "i": i, "fiber": "generic", "dim": g},
                     {"n": n, "i": i, "fiber": "special", "dim": s},
                     {"n": n, "i": i, "fiber": "gap", "dim": s - g}]
    return rows


def _table_json_passes(max_n: int, max_degree: int):
    def check(stdout):
        doc = json.loads(stdout)
        crosscheck = {"ok": True, "cells": max_n * 2 * (max_degree + 1), "mismatches": []}
        return (_first_difference("crosscheck", doc["crosscheck"], crosscheck)
                or _first_difference("rows", doc["rows"], table_rows(max_n, max_degree)))
    return check


def _table_csv_passes(max_n: int, max_degree: int):
    def check(stdout):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(("n", "i", "fiber", "dim"))
        writer.writerows((r["n"], r["i"], r["fiber"], r["dim"])
                         for r in table_rows(max_n, max_degree))
        return _first_difference("csv table", stdout, buf.getvalue())
    return check


def minimal_n(gap: int, degree: int) -> int:
    """Least n whose special-minus-generic dimension reaches the gap."""
    if degree == 1:
        return gap  # C(2n, 1) - C(n, 1) = n
    n = 1
    while dim(n, degree, "special") - dim(n, degree, "generic") < gap:
        n += 1
    return n


def _jump_passes(gap: int, degree: int):
    n = minimal_n(gap, degree)
    special, generic = dim(n, degree, "special"), dim(n, degree, "generic")
    # even-shift sum over the stabilized bundle, N = degree // 2
    fiber_jump = sum(dim(n, degree - 2 * j, "special") - dim(n, degree - 2 * j, "generic")
                     for j in range(degree // 2 + 1))

    def check(stdout):
        doc = json.loads(stdout)
        got = (doc["minimal_n"], doc["special_dim"], doc["generic_dim"], doc["required"],
               doc["fiber_jump"], doc["ok"])
        return _first_difference(f"jump gap {gap} degree {degree}", got,
                                 (n, special, generic, generic + gap, fiber_jump, True))
    return check


def _jump_job(name: str, gap: int, degree: int) -> Job:
    return Job(name, ("--format", "json", "jump", "--gap", str(gap), "--degree", str(degree)),
               EXIT_OK, _jump_passes(gap, degree))


def _tables_jobs(rng: random.Random) -> list[Job]:
    jobs = [
        # The guard-limit table (32 x 200) takes about 20 s, longer than a run;
        # this one renders about 0.7 MB of JSON.
        Job("table-json", ("--format", "json", "cohomology-table", "--max-n", "20",
                           "--max-degree", "120"), EXIT_OK, _table_json_passes(20, 120)),
        Job("table-csv", ("--format", "csv", "cohomology-table"), EXIT_OK,
            _table_csv_passes(6, 20)),
        _jump_job("jump-gap1e6", 10**6, 1),
    ]
    # Every fifth query is at degree 1, which scans linearly up to n = gap, so
    # its cost follows the gap; every other degree solves at small n, costs
    # about in proportion to the degree, and draws its gap from the whole
    # guarded range.  Each query draws its cost-setting value from its own
    # slice of the range, so that whatever the seed, a pass's work and its
    # median verdict stay nearly the same.
    linear = JUMP_QUERIES // 5
    for k in range(JUMP_QUERIES):
        if k % 5 == 0:
            gap, degree = rng.randint(*_slice(10**4, 10**5, k // 5, linear)), 1
        else:
            stratum = k - k // 5 - 1
            gap = rng.randint(1, 10**6)
            degree = rng.randint(*_slice(2, 1000, stratum, JUMP_QUERIES - linear))
        jobs.append(_jump_job(f"jump-seeded-{k:02d}", gap, degree))
    return jobs


def _slice(low: int, high: int, i: int, n: int) -> tuple[int, int]:
    """The i-th of n equal slices of low..high, both ends included."""
    width = high - low + 1
    return low + i * width // n, low + (i + 1) * width // n - 1


def jobs_for(workload: str, seed: int, smoke: bool = False) -> list[Job]:
    """The jobs of one pass, generated from the seed alone."""
    rng = random.Random(seed)
    if workload == "pipeline":
        jobs = _pipeline_jobs()
    elif workload == "free-locus":
        jobs = _free_locus_jobs(rng)
    elif workload == "tables":
        jobs = _tables_jobs(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}; choose one of {WORKLOADS}")
    if smoke:
        jobs = [j for j in jobs if j.name not in _SLOW_JOBS[workload]]
    return jobs


# Run untimed before measuring, so that byte-compiling the package and a cold
# file cache do not land in the first timed verdict.
WARMUP = Job("warmup-verify-p2", ("--format", "json", "verify", "--p", "2"), EXIT_OK,
             _verify_passes(2))
