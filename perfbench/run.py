"""Time-to-verdict benchmark for the hopfdeform CLI.

Usage:
    python3 perfbench/run.py --workload pipeline|free-locus|tables
                             --seed N --seconds S --trace 0|1

Run from the root of a source checkout; nothing needs installing.  A single
client runs one verdict at a time (a closed loop): every job of the
workload, in order, is one pass, and passes repeat until the next one would
end past S seconds.  Each verdict runs in a fresh interpreter, the way a CLI
user's does, so nothing cached survives from one verdict to the next.  Every
verdict is checked against its known answer (see workloads.py), and the
stdout of each job must be byte-identical across passes.  A verdict that
crashes, times out or disagrees counts as failed; error_ratio is
failed / attempted.

On a shared host a processor can change speed by up to a factor of two in
phases of a few seconds, which no run length averages out.  So each verdict
interpreter also times a fixed reference loop (reference.py) before the
import and after the verdict.  The loop's mean time over
reference.REFERENCE_S is the verdict's host factor; the median of its own
and its two neighbours' is the one used, so that one stray loop timing does
not decide it.  The loop's own time is taken out of the interpreter's wall,
CPU and set-up times, and every end-to-end time of the verdict is then
divided by the factor: the timings are seconds on a host that runs the loop
in REFERENCE_S.  The text lines before the result show the run's host
factors.  Per-layer times are raw seconds.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced and
traced passes and prints the per-layer metrics, computed from wrappers that
tracer.py installs around each module's public calls.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from reference import REFERENCE_S
from tracer import TARGETS
from workloads import LARGEST_JOB, WARMUP, WORKLOADS, Job, check_result, jobs_for

ROOT = Path(__file__).resolve().parent.parent
VERDICT = Path(__file__).resolve().parent / "verdict.py"
# The spans of the last traced pass are written here, one JSON line each.
SPAN_DIR = ROOT / ".bench_build"

# A verdict that runs longer than this is killed and counted as failed.
VERDICT_LIMIT_S = 60.0
TIMED_OUT = f"exceeded the {VERDICT_LIMIT_S:.0f} s verdict limit"
# How far the layer self times of a traced verdict may sum away from its
# verdict time: the bookkeeping of one wrapper call, with room for a pause.
SELF_TIME_SLACK_S = 5e-4


@dataclass
class Verdict:
    job: str
    wall_s: float          # whole interpreter, start to exit
    verdict_s: float       # cli.main alone
    setup_s: float         # interpreter start until hopfdeform.cli is imported
    cpu_s: float           # wall_s, setup_s and cpu_s leave out the reference loop
    peak_rss_mb: float
    stdout_sha: str
    error: str | None
    trace: dict | None = None
    host_factor: float = 1.0  # reference loop time over REFERENCE_S, then smoothed


@dataclass
class Pass:
    traced: bool
    wall_s: float = 0.0
    verdicts: list[Verdict] = field(default_factory=list)


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_verdict(job: Job, traced: bool) -> Verdict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    # An installed CLI imports cached bytecode, so let the warm-up verdict
    # write the cache (under __pycache__ in the checkout) even where the
    # environment turns that off.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    cmd = [sys.executable, str(VERDICT), "1" if traced else "0", *job.argv]
    cpu0 = _children_cpu()
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=VERDICT_LIMIT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return Verdict(job.name, time.monotonic() - started, 0.0, 0.0,
                       _children_cpu() - cpu0, 0.0, "", TIMED_OUT)
    wall = time.monotonic() - started
    cpu = _children_cpu() - cpu0
    try:
        record = json.loads(out.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return Verdict(job.name, wall, 0.0, 0.0, cpu, 0.0, "",
                       f"crashed with exit {proc.returncode}: {err.strip()[-300:]}")
    try:
        error = check_result(job, record["code"], record["stdout"], record["stderr"])
    except (ValueError, KeyError, TypeError) as exc:  # malformed output
        error = f"unreadable output: {type(exc).__name__}: {exc}"
    trace = record.get("trace")
    if trace and trace["unrestored"]:
        error = error or f"tracer left wrappers in place: {trace['unrestored']}"
    (before_wall, before_cpu), (after_wall, after_cpu) = record["reference"]
    return Verdict(job.name, wall - before_wall - after_wall, record["verdict_s"],
                   record["imported_at"] - started - before_wall,
                   cpu - before_cpu - after_cpu, record["peak_rss_kb"] / 1024,
                   hashlib.sha256(record["stdout"].encode()).hexdigest(), error, trace,
                   (before_wall + after_wall) / 2 / REFERENCE_S)


def run_pass(jobs: list[Job], traced: bool) -> Pass:
    result = Pass(traced)
    start = time.monotonic()
    for job in jobs:
        verdict = run_verdict(job, traced)
        result.verdicts.append(verdict)
        if verdict.error == TIMED_OUT:
            break  # keep the run inside its time budget
    result.wall_s = time.monotonic() - start
    return result


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 jobs: list[Job] | None = None):
    """Run passes for about ``seconds``.

    Returns (passes, errors, attempted, failed): every disagreement with a
    known answer, verdicts attempted, and verdicts that failed.
    """
    jobs = jobs_for(workload, seed) if jobs is None else jobs
    passes: list[Pass] = []
    errors: list[str] = []
    attempted, failed = 1, 0
    first = run_verdict(WARMUP, traced=False)
    if first.error:
        failed += 1
        errors.append(f"{WARMUP.name}: {first.error}")
    deadline = time.monotonic() + seconds
    cycle = (False, True) if trace else (False,)
    while True:
        cycle_start = time.monotonic()
        for traced in cycle:
            passes.append(run_pass(jobs, traced))
        if any(len(p.verdicts) < len(jobs) for p in passes):
            break
        now = time.monotonic()
        if now + (now - cycle_start) > deadline:  # the next cycle would overrun
            break
    # Same seed, same inputs: the output of every job must repeat byte for byte.
    reference = {}
    for p in passes:
        for v in p.verdicts:
            attempted += 1
            if not v.error and reference.setdefault(v.job, v.stdout_sha) != v.stdout_sha:
                v.error = "stdout differs between passes"
            if v.error:
                failed += 1
                errors.append(f"{v.job}: {v.error}")
    smooth_host_factors([v for p in passes for v in p.verdicts if not v.error])
    return passes, errors, attempted, failed


def smooth_host_factors(verdicts: list[Verdict]) -> None:
    """Give each verdict the median host factor of itself and its neighbours in time."""
    own = [v.host_factor for v in verdicts]
    for i, v in enumerate(verdicts):
        v.host_factor = statistics.median(own[max(0, i - 1):i + 2])


# -- metrics ----------------------------------------------------------------


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def end_to_end(workload: str, passes: list[Pass]) -> dict:
    """Untraced passes only.  Returns name -> (value, unit, samples).

    Each verdict's times are first divided by its host factor.  Every
    timing is a median over the run: pass_s and cpu_s add up each job's
    median, so that one slow verdict moves them no more than it moves that
    job.  verdict_s.p50 is the median over jobs of each job's median verdict
    time: the median of all verdicts falls between two jobs whenever their
    times overlap, and then jumps from one to the other.  Failed verdicts are
    left out: a crash or a timeout is no speed-up, and the result's
    ``correct`` and ``failed`` already report it.
    """
    untraced = [p for p in passes if not p.traced]
    verdicts = [v for p in untraced for v in p.verdicts if not v.error]
    by_job: dict[str, list[Verdict]] = {}
    for v in verdicts:
        by_job.setdefault(v.job, []).append(v)
    largest = by_job.get(LARGEST_JOB[workload], [])
    n = len(untraced)

    def job_medians(attr):
        return [_median(getattr(v, attr) / v.host_factor for v in vs)
                for vs in by_job.values()]

    return {
        "pass_s": (sum(job_medians("wall_s")), "s", n),
        "cpu_s": (sum(job_medians("cpu_s")), "s", n),
        "verdict_s.p50": (_median(job_medians("verdict_s")), "s", len(verdicts)),
        "largest_verdict_s": (_median(v.verdict_s / v.host_factor for v in largest), "s",
                              len(largest)),
        "setup_s": (_median(v.setup_s / v.host_factor for v in verdicts), "s", len(verdicts)),
        "peak_rss_mb": (max((v.peak_rss_mb for v in verdicts), default=0.0), "MB",
                        len(verdicts)),
    }


def _sum_stats(traces: list[dict]) -> tuple[dict, dict, dict]:
    calls, self_s, counters = {}, {}, {}
    for t in traces:
        for k, v in t["calls"].items():
            calls[k] = calls.get(k, 0) + v
        for k, v in t["self_s"].items():
            self_s[k] = self_s.get(k, 0.0) + v
        for k, v in t["counters"].items():
            if k == "rings.max_t_degree":
                counters[k] = max(counters.get(k, 0), v)
            else:
                counters[k] = counters.get(k, 0) + v
    return calls, self_s, counters


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(traces: list[dict]) -> dict:
    """Per-layer metrics of one traced pass.  Returns name -> (value, unit)."""
    calls, self_s, c = _sum_stats(traces)

    def n(*keys):
        return sum(calls[k] for k in keys)

    def s(*keys):
        return sum(self_s[k] for k in keys)

    def layer(name):
        return sum(v for k, v in self_s.items() if k.startswith(name + "."))

    fraction = [k for k in calls if k.startswith("rings.fraction_")]
    fp = [k for k in calls if k.startswith("rings.fp_")]
    handlers = [k for k in calls if k.startswith("cli.run_")]
    return {
        "cli.handler.self_s": (s(*handlers), "s"),
        "cli.render.self_s": (s("cli.render"), "s"),
        "cli.render.bytes": (c["cli.render.bytes"], "B"),
        "cli.self_s": (layer("cli"), "s"),
        "hopf.verify_axioms.calls": (n("hopf.verify_axioms"), "count"),
        "hopf.verify_axioms.self_s": (s("hopf.verify_axioms"), "s"),
        "hopf.square_mult.calls": (n("hopf.square_mult"), "count"),
        "hopf.square_mult.self_s": (s("hopf.square_mult"), "s"),
        "hopf.exhibit_isomorphism.calls": (n("hopf.exhibit_isomorphism"), "count"),
        "hopf.exhibit_isomorphism.self_s": (s("hopf.exhibit_isomorphism"), "s"),
        "hopf.cartier_dual.self_s": (s("hopf.cartier_dual"), "s"),
        "hopf.hopf_quotient.self_s": (s("hopf.hopf_quotient"), "s"),
        "hopf.build.self_s": (s("hopf.deformation_hopf", "hopf.specialize_hopf",
                                "hopf.catalog_build"), "s"),
        "hopf.self_s": (layer("hopf"), "s"),
        "algebra.elem_mul.calls": (n("algebra.elem_mul"), "count"),
        "algebra.elem_mul.self_s": (s("algebra.elem_mul"), "s"),
        "algebra.elem_add.calls": (n("algebra.elem_add", "algebra.elem_sub"), "count"),
        "algebra.elem_add.self_s": (s("algebra.elem_add", "algebra.elem_sub"), "s"),
        "algebra.parent_eq.calls": (n("algebra.parent_eq"), "count"),
        "algebra.parent_eq.self_s": (s("algebra.parent_eq"), "s"),
        "algebra.linear_apply.calls": (n("algebra.linear_apply"), "count"),
        "algebra.linear_apply.self_s": (s("algebra.linear_apply"), "s"),
        "algebra.inverse.calls": (n("algebra.inverse"), "count"),
        "algebra.inverse.self_s": (s("algebra.inverse"), "s"),
        "algebra.algebra_hom.self_s": (s("algebra.algebra_hom"), "s"),
        "algebra.self_s": (layer("algebra"), "s"),
        "rings.poly_mul.calls": (n("rings.poly_mul"), "count"),
        "rings.poly_mul.self_s": (s("rings.poly_mul"), "s"),
        "rings.poly_divmod.calls": (n("rings.poly_divmod"), "count"),
        "rings.poly_divmod.self_s": (s("rings.poly_divmod"), "s"),
        "rings.gcd.calls": (n("rings.poly_gcd"), "count"),
        "rings.gcd.reducing_ratio": (_ratio(c["rings.gcd.reducing"], n("rings.poly_gcd")),
                                     "ratio"),
        "rings.fraction_op.calls": (n(*fraction), "count"),
        "rings.fraction_op.self_s": (s(*fraction), "s"),
        "rings.fraction_den1_ratio": (_ratio(c["rings.fraction_den1"], n(*fraction)),
                                      "ratio"),
        "rings.fp_op.calls": (n(*fp), "count"),
        "rings.fp_op.self_s": (s(*fp), "s"),
        "rings.max_t_degree": (c["rings.max_t_degree"], "degree"),
        "rings.self_s": (layer("rings"), "s"),
        "action.is_action.self_s": (s("action.is_action"), "s"),
        "action.translate.calls": (n("action.translate"), "count"),
        "action.translate.self_s": (s("action.translate"), "s"),
        "action.free_locus.self_s": (s("action.free_locus"), "s"),
        "action.candidates": (c["action.candidates"], "count"),
        "action.points": (c["action.points"], "count"),
        "action.full_translate_ratio": (_ratio(c["action.full_translates"],
                                               c["action.nonzero_pairs"]), "ratio"),
        "action.symbolic.self_s": (s("action.symbolic"), "s"),
        "action.self_s": (layer("action"), "s"),
        "cohomology.kunneth.calls": (n("cohomology.kunneth"), "count"),
        "cohomology.kunneth.self_s": (s("cohomology.kunneth"), "s"),
        "cohomology.crosscheck_cells": (c["cohomology.crosscheck_cells"], "count"),
        "cohomology.dim_classifying.calls": (n("cohomology.dim_classifying"), "count"),
        "cohomology.dim_classifying.self_s": (s("cohomology.dim_classifying"), "s"),
        "cohomology.jump_scan.self_s": (s("cohomology.jump_scan"), "s"),
        "cohomology.self_s": (layer("cohomology"), "s"),
        "trace.verdict_s": (sum(t["root_s"] for t in traces), "s"),
    }


def trace_checks(workload: str, traced: list[Pass]) -> list[str]:
    """The traced run's own correctness: self times add up, boundaries reached."""
    errors = []
    for p in traced:
        for v in p.verdicts:
            t = v.trace
            if t is None:
                continue
            # verdict_s is verdict.py's own clock around cli.main; it differs
            # from the outermost wrapper's span by that wrapper's bookkeeping.
            total = sum(t["self_s"].values())
            if abs(total - v.verdict_s) > SELF_TIME_SLACK_S:
                errors.append(f"{v.job}: layer self times sum to {total:.6f} s, "
                              f"traced verdict took {v.verdict_s:.6f} s")
    calls, _, _ = _sum_stats([v.trace for p in traced for v in p.verdicts if v.trace])
    missed = [key for key, _, _, _, home in TARGETS if home == workload and not calls.get(key)]
    if missed:
        errors.append(f"boundaries never reached on {workload}: {', '.join(missed)}")
    return errors


def write_spans(workload: str, traced: Pass) -> Path:
    """Write one traced pass's spans as JSON lines: job, id, parent, name, start, end."""
    SPAN_DIR.mkdir(exist_ok=True)
    path = SPAN_DIR / f"spans-{workload}.jsonl"
    with open(path, "w") as fh:
        for v in traced.verdicts:
            for span_id, parent, name, start, end in (v.trace or {}).get("spans", []):
                fh.write(json.dumps({"job": v.job, "id": span_id, "parent": parent,
                                     "name": name, "start": start, "end": end}) + "\n")
    return path


def _scaled_pass_s(p: Pass) -> float:
    return sum(v.wall_s / v.host_factor for v in p.verdicts)


def per_layer(passes: list[Pass]) -> dict:
    untraced = [_scaled_pass_s(p) for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    per_pass = [layer_metrics([v.trace for v in p.verdicts if v.trace]) for p in traced]
    metrics = {name: (statistics.median(m[name][0] for m in per_pass), unit, len(per_pass))
               for name, (_, unit) in per_pass[0].items()}
    metrics["trace.overhead_ratio"] = (
        statistics.median(_scaled_pass_s(p) for p in traced) / statistics.median(untraced),
        "ratio", len(traced))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hopfdeform" / "cli.py").is_file():
        print(f"error: no hopfdeform source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    passes, errors, attempted, failed = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace))
    if args.trace:
        traced = [p for p in passes if p.traced]
        errors += trace_checks(args.workload, traced)
        metrics = per_layer(passes)
        spans = write_spans(args.workload, traced[-1])
    else:
        metrics = end_to_end(args.workload, passes)

    for e in errors:
        print(f"ERROR {e}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} passes, "
          f"{attempted} verdicts, error_ratio {failed}/{attempted}")
    print("  pass seconds: " + " ".join(
        f"{p.wall_s:.3f}{'t' if p.traced else ''}" for p in passes))
    factors = [v.host_factor for p in passes for v in p.verdicts if not v.error]
    if len(factors) > 1:
        low, mid, high = statistics.quantiles(factors, n=4)
        print(f"  host factor, quartiles over {len(factors)} verdicts: "
              f"{low:.3f} {mid:.3f} {high:.3f}")
    if args.trace:
        print(f"  spans of the last traced pass: {spans}")
    for name, (value, unit, samples) in metrics.items():
        print(f"  {name:36s} {value:>16.6g} {unit:6s} n={samples}")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
