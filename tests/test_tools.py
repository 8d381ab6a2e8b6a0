"""Tests for tools/same_bytes.py, the byte-identity harness for two source trees."""

import importlib.util
import pathlib
import shutil

from hopfdeform.hopf import MUTATIONS

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("same_bytes", ROOT / "tools" / "same_bytes.py")
same_bytes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_bytes)


def test_corpus_reads_every_source():
    corpus = same_bytes.corpus()  # puts tests/ and perfbench/ on sys.path
    import test_cli
    import workloads

    assert len(corpus) == len(set(corpus))
    have = set(corpus)
    assert {("--format", "json", *argv) for argv, _, _ in test_cli.PINNED_JSON} <= have
    assert {tuple(argv) for argv, _, _ in test_cli.PINNED_RENDERINGS} <= have
    assert {job.argv for seed in (1, 2) for w in workloads.WORKLOADS
            for job in workloads.jobs_for(w, seed)} <= have
    ci = same_bytes._ci_pins()
    assert ("--format", "json", "verify", "--p", "5", "--slow") in ci
    assert ("--format", "json", "dual", "--p", "5", "--fiber", "generic", "--name",
            "alpha_p") in ci
    assert set(ci) <= have
    for p in ("2", "3"):
        for m in MUTATIONS:
            assert ("verify", "--p", p, "--mutate", m) in have
    duals = [c for c in corpus if "dual" in c and "--fiber" in c and "--power" in c]
    assert len({(c[c.index("--p") + 1], c[c.index("--fiber") + 1], c[c.index("--power") + 1],
                 c[c.index("--name") + 1]) for c in duals}) == 3 * 2 * 2 * 3


def test_step_timings_are_blanked_and_nothing_else():
    pretty = (b"deformation verification at p = 2\n  [pass] build  (0.012 s)\n"
              b"  [FAIL] axioms-base-ring  (1.500 s)\n         (0.012 s)\n")
    assert same_bytes._STEP_TIMING.sub(rb"\1", pretty) == (
        b"deformation verification at p = 2\n  [pass] build\n"
        b"  [FAIL] axioms-base-ring\n         (0.012 s)\n")


def test_a_one_byte_change_to_a_detail_string_is_reported(tmp_path):
    before, after = tmp_path / "before", tmp_path / "after"
    for tree in (before, after):
        shutil.copytree(ROOT / "src", tree / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
    hopf_py = after / "src" / "hopfdeform" / "hopf.py"
    text = hopf_py.read_text()
    assert text.count('"antipode identities hold"') == 1
    hopf_py.write_text(text.replace('"antipode identities hold"', '"antipode identities holD"'))
    commands = [("--format", "json", "verify", "--p", "2", "--mutate", "corrupt-antipode"),
                ("verify", "--p", "2", "--mutate", "corrupt-antipode"),
                ("verify", "--p", "2")]
    records = same_bytes.compare(before, after, commands)
    assert [r["differs"] for r in records] == [["stdout_sha256"], ["stdout_sha256"], []]
    assert [r["before"]["code"] for r in records] == [1, 1, 0]


def test_corpus_holds_help_and_the_forms_left_to_argparse():
    corpus = set(same_bytes.corpus())
    import test_cli
    from hopfdeform.cli import HANDLERS

    assert {("--help",)} | {(command, "--help") for command in HANDLERS} <= corpus
    assert {tuple(argv) for argv in test_cli.ARGPARSE_EXITS} <= corpus
    assert {tuple(argv) for pair in test_cli.ARGPARSE_FORMS for argv in pair} <= corpus
    assert {tuple(argv) for argv, _ in test_cli.ARGPARSE_NEGATIVES} <= corpus
