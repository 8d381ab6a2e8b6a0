"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
RATIONALE = json.loads((HERE / "rationale.json").read_text())


def _run(workload, jobs):
    return run.run_workload(workload, 7, 0, False, jobs=jobs)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_workload_has_no_errors(workload):
    jobs = workloads.jobs_for(workload, 7, smoke=True)
    passes, errors, attempted, failed = _run(workload, jobs)
    assert (errors, failed, attempted) == ([], 0, len(jobs) + 1)  # + warm-up


def test_planted_wrong_exit_code_is_counted():
    jobs = workloads.jobs_for("pipeline", 7, smoke=True)
    assert jobs[0].name == "verify-p2"
    planted = [replace(jobs[0], exit_code=workloads.EXIT_VERIFICATION)] + jobs[1:]
    _, errors, attempted, failed = _run("pipeline", planted)
    assert (failed, attempted) == (1, len(jobs) + 1)
    assert errors[0].startswith("verify-p2: exit code 0")


def test_planted_wrong_answer_is_counted():
    job = workloads._jump_job("jump", 1000, 1)
    planted = replace(job, check=workloads._jump_passes(1001, 1))
    _, errors, attempted, failed = _run("tables", [job, planted])
    assert (failed, attempted) == (1, 3)
    assert "got (1000," in errors[0]


def test_failed_verdicts_are_left_out_of_timings():
    def verdict(job, seconds, error=None):
        return run.Verdict(job, seconds, seconds, 0.1, seconds, 20.0, "", error)

    largest = workloads.LARGEST_JOB["pipeline"]
    passes = [run.Pass(False, verdicts=[verdict(largest, 2.0), verdict("verify-p2", 0.2)]),
              run.Pass(False, verdicts=[verdict(largest, 0.0, run.TIMED_OUT),
                                        verdict("verify-p2", 0.2)])]
    metrics = run.end_to_end("pipeline", passes)
    assert metrics["largest_verdict_s"] == (2.0, "s", 1)
    assert metrics["pass_s"][0] == pytest.approx(2.2)
    assert metrics["verdict_s.p50"][2] == 3


def test_times_are_divided_by_host_factor():
    largest = workloads.LARGEST_JOB["pipeline"]
    slow = run.Verdict(largest, 4.0, 3.0, 0.2, 3.8, 20.0, "", None, host_factor=2.0)
    metrics = run.end_to_end("pipeline", [run.Pass(False, verdicts=[slow])])
    assert [metrics[k][0] for k in ("pass_s", "cpu_s", "largest_verdict_s", "setup_s")] \
        == [2.0, 1.9, 1.5, 0.1]


def test_host_factor_is_median_of_neighbours():
    verdicts = [run.Verdict("j", 1, 1, 1, 1, 1, "", None, host_factor=f) for f in (1, 9, 1, 2)]
    run.smooth_host_factors(verdicts)
    assert [v.host_factor for v in verdicts] == [5, 1, 2, 1.5]


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metric_names_match_benchmark_json(trace, capsys):
    assert run.main(["--workload", "pipeline", "--seed", "7", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in declared]
    assert [m["unit"] for m in result["metrics"].values()] == [m["unit"] for m in declared]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_fixes_argv(workload):
    def argv(seed):
        return [job.argv for job in workloads.jobs_for(workload, seed)]

    assert argv(3) == argv(3)
    if workload != "pipeline":  # the pipeline has no seeded inputs
        assert argv(3) != argv(4)


def test_seeded_jump_queries_draw_from_their_own_slices():
    queries = [job.argv for job in workloads.jobs_for("tables", 5)
               if job.name.startswith("jump-seeded-")]
    gaps = [int(argv[-3]) for argv in queries if argv[-1] == "1"]
    degrees = [int(argv[-1]) for argv in queries if argv[-1] != "1"]
    for values, low, high in ((gaps, 10**4, 10**5), (degrees, 2, 1000)):
        slices = [workloads._slice(low, high, i, len(values)) for i in range(len(values))]
        assert slices[0][0] == low and slices[-1][1] == high
        assert all(lo <= v <= hi for v, (lo, hi) in zip(values, slices))


def test_tracer_patches_every_holder_and_restores_by_identity():
    sys.path.insert(0, str(HERE.parent / "src"))
    import hopfdeform.action as action
    import hopfdeform.cli as cli

    is_action = action.is_action
    originals = {"verify_axioms": cli.verify_axioms, "translate": action.translate,
                 "run_verify": cli.HANDLERS["verify"]}
    t = tracer.Tracer()
    t.install()
    try:
        assert cli.verify_axioms is not originals["verify_axioms"]
        assert cli.HANDLERS["verify"] is not originals["run_verify"]
        assert action.is_action is not is_action
        assert action.translate in is_action.__defaults__
        assert originals["translate"] not in is_action.__defaults__
    finally:
        assert t.restore() == []
    assert cli.verify_axioms is originals["verify_axioms"]
    assert cli.HANDLERS["verify"] is originals["run_verify"]
    assert action.is_action is is_action
    assert originals["translate"] in is_action.__defaults__


def test_rationale_covers_declared_metrics_and_largest_jobs():
    traced_only = {"trace.overhead_ratio", "trace.verdict_s"}
    declared = {m["name"] for m in BENCHMARK["per_layer"]} - traced_only
    assert set(RATIONALE["per_layer"]) == declared
    for workload in workloads.WORKLOADS:
        names = [job.name for job in workloads.jobs_for(workload, 0)]
        assert RATIONALE["workloads"][workload]["largest_job"] == workloads.LARGEST_JOB[workload]
        assert workloads.LARGEST_JOB[workload] in names
