"""Tests for the command-line interface: exit codes, schemas, determinism."""

import contextlib
import csv
import enum
import importlib.util
import hashlib
import io
import json
import pathlib
import random
import subprocess
import sys

import pytest

from hopfdeform import cli, cohomology, hopf
from hopfdeform.algebra import LinearMap
from hopfdeform.cli import UsageError, main, parse_test_algebra

STEP_NAMES = [
    "build",
    "axioms-base-ring",
    "special-fiber-axioms",
    "generic-fiber-axioms",
    "special-product-split",
    "generic-grouplike-order",
    "generic-multiplicative",
    "generic-dual-constant",
    "quotient-by-x",
]


def run_json(capsys, argv):
    code = main(["--format", "json"] + argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestVerify:
    def test_p2_passes(self, capsys):
        assert main(["verify", "--p", "2"]) == 0
        out = capsys.readouterr().out
        assert "all 9 steps passed" in out

    def test_p3_passes(self, capsys):
        code, payload = run_json(capsys, ["verify", "--p", "3"])
        assert code == 0
        assert payload["ok"] is True
        assert [s["name"] for s in payload["steps"]] == STEP_NAMES
        assert all(s["status"] == "passed" for s in payload["steps"])

    def test_schema_field(self, capsys):
        _, payload = run_json(capsys, ["verify", "--p", "2"])
        assert payload["schema"] == 1
        assert payload["command"] == "verify"

    def test_not_prime_is_usage_error(self, capsys):
        assert main(["verify", "--p", "4"]) == 2
        assert "not prime" in capsys.readouterr().err

    def test_large_prime_is_guard(self, capsys):
        for p in ("7", "11"):
            assert main(["verify", "--p", p]) == 3
            assert "p <= 5" in capsys.readouterr().err

    def test_p5_needs_slow_flag(self, capsys):
        assert main(["verify", "--p", "5"]) == 2
        assert "--slow" in capsys.readouterr().err

    def test_unknown_mutation(self, capsys):
        assert main(["verify", "--p", "2", "--mutate", "nonsense"]) == 2

    @pytest.mark.parametrize("mutation,step,needle", [
        ("corrupt-antipode", "axioms-base-ring", "antipode"),
        ("drop-comul-t-term", "build", "relation"),
        ("drop-comul-x-term", "build", "relation"),
    ])
    def test_mutations_fail_at_their_step(self, capsys, mutation, step, needle):
        code, payload = run_json(capsys, ["verify", "--p", "2", "--mutate", mutation])
        assert code == 1
        assert payload["ok"] is False
        failed = [s for s in payload["steps"] if s["status"] == "failed"]
        assert len(failed) == 1
        assert failed[0]["name"] == step
        assert needle in failed[0]["detail"].lower()
        # everything after the failure is skipped, nothing silently passes
        tail = payload["steps"][payload["steps"].index(failed[0]) + 1:]
        assert all(s["status"] == "skipped" for s in tail)


class TestDual:
    @pytest.mark.parametrize("name,expected_dual", [
        ("alpha_p", "alpha_p"),
        ("mu", "constant_cyclic"),
        ("constant_cyclic", "mu"),
    ])
    def test_catalog_duals(self, capsys, name, expected_dual):
        argv = ["dual", "--p", "2", "--name", name]
        if name != "alpha_p":
            argv += ["--power", "2"]
        code, payload = run_json(capsys, argv)
        assert code == 0
        assert payload["dual"] == expected_dual
        assert all(c["passed"] for c in payload["checks"])

    def test_generic_fiber(self, capsys):
        code, payload = run_json(
            capsys, ["dual", "--p", "3", "--name", "mu", "--fiber", "generic"])
        assert code == 0
        assert payload["order"] == 3

    def test_unsupported_power(self, capsys):
        assert main(["dual", "--p", "2", "--name", "mu", "--power", "3"]) == 2

    @pytest.mark.parametrize("name,power,calls", [
        ("alpha_p", 1, 1), ("mu", 2, 2), ("constant_cyclic", 2, 2)])
    def test_each_catalog_object_is_verified_once(self, capsys, monkeypatch,
                                                  name, power, calls):
        real = hopf.verify_axioms
        counted = []
        monkeypatch.setattr(hopf, "verify_axioms",
                            lambda h: counted.append(h) or real(h))
        code, _ = run_json(capsys, ["dual", "--p", "2", "--power", str(power),
                                    "--name", name])
        assert code == 0
        assert len(counted) == calls

    @pytest.mark.parametrize("name", ["alpha_p", "mu", "constant_cyclic"])
    def test_bumped_identification_fails_only_the_duality_check(
            self, capsys, monkeypatch, name):
        real = hopf.catalog_dual
        reports = []

        def bumped(entry):
            partner, dual, phi = real(entry)
            cols = [dict(col) for col in phi.cols]
            # e_0 added to the last column keeps the map invertible.
            cols[-1][0] = cols[-1].get(0, phi.ring.zero()) + phi.ring.one()
            phi = LinearMap(phi.ring, phi.source_dim, phi.target_dim, cols)
            reports.append(hopf.exhibit_isomorphism(partner.hopf, dual, phi))
            return partner, dual, phi

        monkeypatch.setattr(cli, "catalog_dual", bumped)
        code, payload = run_json(capsys, ["dual", "--p", "2", "--name", name])
        assert code == 1 and not payload["ok"]
        (report,) = reports
        first = report.first_failure
        assert first.name not in ("map is invertible", "base rings agree")
        duality, canonical = payload["checks"]
        assert (duality["name"], duality["passed"]) == (f"dual-is-{payload['dual']}", False)
        assert duality["detail"] == report.summary()
        assert duality["detail"].startswith(f"{first.name} fails")
        assert canonical == {"name": "double-dual-canonical", "passed": True, "detail": ""}

    @pytest.mark.parametrize("name,first_label", [
        ("alpha_p", "1"), ("mu", "1"), ("constant_cyclic", "d0")])
    def test_corrupted_second_transpose_fails_only_the_double_dual(
            self, capsys, monkeypatch, name, first_label):
        real = hopf._transpose

        def corrupted(s):
            d = real(s)
            if not s.labels[0].endswith("*"):
                return d
            # Transposing a dual: drop the counit of the double dual.
            counit = LinearMap(d.ring, d.rank, 1, [{} for _ in range(d.rank)])
            return hopf.HopfAlgebra(d.ring, d.labels, d.mult, d.unit, d.comul,
                                    counit, d.antipode)

        monkeypatch.setattr(hopf, "_transpose", corrupted)
        code, payload = run_json(capsys, ["dual", "--p", "2", "--name", name])
        assert code == 1 and not payload["ok"]
        duality, canonical = payload["checks"]
        assert duality["passed"] and duality["detail"] == ""
        assert canonical["name"] == "double-dual-canonical" and not canonical["passed"]
        assert canonical["detail"] == f"counit preserved fails at {first_label}"


class TestQuotient:
    def test_kill_x_reproduces_rank_p_deformation(self, capsys):
        code, payload = run_json(capsys, ["quotient", "--p", "2", "--kill", "x"])
        assert code == 0
        assert payload["rank"] == 2
        pres = payload["presentation"]
        assert pres["generators"] == ["y"]
        assert pres["comultiplication"]["y"] == "1⊗y + y⊗1 + t*y⊗y"

    def test_kill_x_at_p3(self, capsys):
        code, payload = run_json(capsys, ["quotient", "--p", "3", "--kill", "x"])
        assert code == 0
        assert payload["rank"] == 3

    def test_kill_x_at_p5(self, capsys):
        code, payload = run_json(capsys, ["quotient", "--p", "5", "--kill", "x", "--slow"])
        assert code == 0
        assert payload["rank"] == 5
        assert payload["presentation"]["comultiplication"]["y"] == "1⊗y + y⊗1 + t*y⊗y"

    def test_kill_y_is_not_free(self, capsys):
        code, payload = run_json(capsys, ["quotient", "--p", "3", "--kill", "y"])
        assert code == 1
        assert payload["error"]["kind"] == "NotFreeQuotientError"
        assert "t = 0" in payload["error"]["detail"]

    def test_kill_both(self, capsys):
        code, payload = run_json(capsys, ["quotient", "--p", "2", "--kill", "x,y"])
        assert code == 0
        assert payload["rank"] == 1

    def test_unknown_generator(self, capsys):
        assert main(["quotient", "--p", "2", "--kill", "z"]) == 2

    def test_empty_ideal(self, capsys):
        assert main(["quotient", "--p", "2", "--kill", ","]) == 2


class TestCohomologyTable:
    def test_small_table(self, capsys):
        code, payload = run_json(
            capsys, ["cohomology-table", "--max-n", "2", "--max-degree", "3"])
        assert code == 0
        assert payload["crosscheck"]["ok"] is True
        assert len(payload["rows"]) == 2 * 4 * 3
        cell = {r["fiber"]: r["dim"]
                for r in payload["rows"] if r["n"] == 1 and r["i"] == 1}
        assert cell == {"generic": 1, "special": 2, "gap": 1}

    def test_fiber_filter(self, capsys):
        code, payload = run_json(
            capsys, ["cohomology-table", "--max-n", "1", "--max-degree", "2",
                     "--fiber", "generic"])
        assert code == 0
        assert {r["fiber"] for r in payload["rows"]} == {"generic"}
        assert all(r["dim"] == 1 for r in payload["rows"])

    def test_csv_matches_json(self, capsys):
        args = ["cohomology-table", "--max-n", "2", "--max-degree", "4"]
        code, payload = run_json(capsys, args)
        assert code == 0
        assert main(["--format", "csv"] + args) == 0
        text = capsys.readouterr().out
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == len(payload["rows"])
        for got, want in zip(rows, payload["rows"]):
            assert int(got["n"]) == want["n"]
            assert int(got["i"]) == want["i"]
            assert got["fiber"] == want["fiber"]
            assert int(got["dim"]) == want["dim"]

    def test_crosscheck_reports_a_corrupted_cell(self, capsys, monkeypatch):
        # Off by one in the special column of n = 3, degree 5 only: the only
        # Kunneth squares left are the special columns, each the square of the
        # generic n-fold power, whose degree-1 entry is n; only n = 3 has 3.
        original = cohomology.kunneth

        def corrupted(s1, s2):
            out = original(s1, s2)
            if s1 == s2 and s1[1] == 3:
                coeffs = list(out.coefficients)
                coeffs[5] += 1
                out = cohomology.PoincareSeries(coeffs)
            return out

        monkeypatch.setattr(cohomology, "kunneth", corrupted)
        monkeypatch.delenv(cli.FORMAT_ENV_VAR, raising=False)
        args = ["cohomology-table", "--max-n", "4", "--max-degree", "6"]
        code, payload = run_json(capsys, args)
        assert code == 1
        assert payload["crosscheck"]["ok"] is False
        assert payload["crosscheck"]["cells"] == 4 * 2 * 7
        assert payload["crosscheck"]["mismatches"] == [
            {"n": 3, "i": 5, "fiber": "special", "convolution": 253, "binomial": 252}]
        # the table itself comes from the closed forms and is not affected
        assert {r["dim"] for r in payload["rows"]
                if (r["n"], r["i"], r["fiber"]) == (3, 5, "special")} == {252}
        assert main(args) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "convolution crosscheck: 56 cells, 1 MISMATCHES"

    @pytest.mark.parametrize("fmt", ["json", "csv", "pretty"])
    def test_each_cell_evaluates_one_binomial(self, capsys, monkeypatch, fmt):
        # the cross-check reads its binomials from the printed table's rows
        calls = []
        original = cohomology.dim_classifying

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(cohomology, "dim_classifying", counted)
        args = ["--format", fmt, "cohomology-table", "--max-n", "4", "--max-degree", "6"]
        assert main(args) == 0
        assert len(calls) == 4 * 7 * 2
        assert len(set(calls)) == len(calls)
        if fmt == "json":
            payload = json.loads(capsys.readouterr().out)
            assert payload["crosscheck"] == {"ok": True, "cells": 56, "mismatches": []}

    def test_guards(self, capsys):
        assert main(["cohomology-table", "--max-n", "33"]) == 3
        assert main(["cohomology-table", "--max-degree", "201"]) == 3
        assert main(["cohomology-table", "--max-n", "0"]) == 2


class TestJump:
    def test_degree_one_solution(self, capsys):
        code, payload = run_json(capsys, ["jump", "--gap", "5", "--degree", "1"])
        assert code == 0
        assert payload["minimal_n"] == 5
        assert payload["special_dim"] >= payload["required"]
        assert payload["fiber_jump"] >= 5
        assert payload["certificate"]["termwise_dominated"] is True

    def test_stabilized_default(self, capsys):
        code, payload = run_json(capsys, ["jump", "--gap", "2", "--degree", "4"])
        assert code == 0
        assert payload["stabilized"] is True
        assert payload["bundle_dim"] == 2

    def test_explicit_bundle_dim(self, capsys):
        code, payload = run_json(
            capsys, ["jump", "--gap", "2", "--degree", "4", "--bundle-dim", "1"])
        assert code == 0
        assert payload["stabilized"] is False
        assert len(payload["certificate"]["terms"]) == 2

    def test_usage_errors(self, capsys):
        assert main(["jump", "--gap", "0", "--degree", "1"]) == 2
        assert main(["jump", "--gap", "1", "--degree", "0"]) == 2
        assert main(["jump", "--gap", "1", "--degree", "1", "--bundle-dim", "-1"]) == 2

    def test_guards(self, capsys):
        assert main(["jump", "--gap", str(10**6 + 1), "--degree", "1"]) == 3
        assert main(["jump", "--gap", "1", "--degree", "1001"]) == 3


class TestFreeLocus:
    def test_exhaustive_dual_numbers(self, capsys):
        code, payload = run_json(
            capsys, ["free-locus", "--p", "2", "--n", "1",
                     "--test-algebra", "F2[e]/(e^2)"])
        assert code == 0
        assert payload["action_law_ok"] is True
        locus = payload["free_locus"]
        assert locus["mode"] == "exhaustive"
        assert locus["trials"] == 8
        assert locus["points"] == 2
        assert locus["failures"] == []
        assert payload["symbolic_identity"]["passed"] is True

    def test_random_trials_echo_seed(self, capsys):
        code, payload = run_json(
            capsys, ["free-locus", "--p", "3", "--n", "2",
                     "--test-algebra", "F3[e]/(e^3)", "--trials", "50",
                     "--seed", "7"])
        assert code == 0
        assert payload["seed"] == 7
        assert payload["free_locus"]["seed"] == 7
        assert payload["free_locus"]["mode"] == "random"
        assert payload["free_locus"]["trials"] == 50

    def test_plain_field_coefficients(self, capsys):
        code, payload = run_json(
            capsys, ["free-locus", "--p", "2", "--n", "2", "--test-algebra", "F2"])
        assert code == 0
        assert payload["test_algebra"] == "F2"
        assert payload["free_locus"]["points"] == 1

    def test_identity_skipped_out_of_guard(self, capsys):
        code, payload = run_json(
            capsys, ["free-locus", "--p", "2", "--n", "4",
                     "--test-algebra", "F2", "--trials", "20"])
        assert code == 0
        assert "skipped" in payload["symbolic_identity"]

    def test_malformed_algebra(self, capsys):
        assert main(["free-locus", "--p", "2", "--n", "1",
                     "--test-algebra", "F2[e/(e^2)"]) == 2
        err = capsys.readouterr().err
        assert "F3[e]/(e^3)" in err  # the grammar hint

    def test_characteristic_mismatch(self, capsys):
        assert main(["free-locus", "--p", "2", "--n", "1",
                     "--test-algebra", "F3[e]/(e^3)"]) == 2

    def test_trials_validation(self, capsys):
        assert main(["free-locus", "--p", "2", "--n", "1",
                     "--test-algebra", "F2", "--trials", "0"]) == 2


class TestAlgebraGrammar:
    def test_plain_field(self):
        B = parse_test_algebra("F2")
        assert B.ring.p == 2
        assert B.gens == ()
        assert B.rank == 1

    def test_single_generator(self):
        B = parse_test_algebra("F3[e]/(e^3)")
        assert (B.ring.p, B.gens, B.bounds) == (3, ("e",), (3,))
        assert B.rules == ({},)

    def test_two_generators_and_spaces(self):
        for text in ("F2[e,d]/(e^2,d^2)", "F2[e, d]/(e^2, d^2)"):
            B = parse_test_algebra(text)
            assert (B.gens, B.bounds) == (("e", "d"), (2, 2))

    def test_relations_in_any_order(self):
        B = parse_test_algebra("F2[e,d]/(d^3,e^2)")
        assert B.bounds == (2, 3)

    def test_roundtrip_with_description(self):
        from hopfdeform.action import describe_test_algebra
        for text in ("F2", "F3[e]/(e^3)", "F2[e, d]/(e^2, d^2)"):
            B = parse_test_algebra(text)
            assert parse_test_algebra(describe_test_algebra(B)).bounds == B.bounds

    @pytest.mark.parametrize("bad", [
        "F4[e]/(e^2)",      # characteristic not prime
        "F2[e]",            # no relation block
        "F2[e]/(e^1)",      # exponent below 2
        "F2[e,e]/(e^2,e^2)",  # repeated generator
        "F2[e]/(d^2)",      # relation for an unknown generator
        "F2[e,d]/(e^2)",    # missing relation
        "F2[e]/(e^2,e^3)",  # two relations for one generator
        "Q[e]/(e^2)",       # not a prime field
    ])
    def test_rejects(self, bad):
        with pytest.raises(UsageError):
            parse_test_algebra(bad)


class TestPlumbing:
    def test_env_var_sets_format(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.FORMAT_ENV_VAR, "json")
        assert main(["jump", "--gap", "1", "--degree", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "jump"

    def test_flag_overrides_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.FORMAT_ENV_VAR, "json")
        assert main(["--format", "pretty", "jump", "--gap", "1", "--degree", "1"]) == 0
        assert "minimal n = 1" in capsys.readouterr().out

    def test_bad_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.FORMAT_ENV_VAR, "bogus")
        assert main(["jump", "--gap", "1", "--degree", "1"]) == 2

    def test_csv_limited_to_tables(self, capsys):
        assert main(["--format", "csv", "verify", "--p", "2"]) == 2
        assert "cohomology-table" in capsys.readouterr().err

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        assert main(["--format", "json", "--output", str(target),
                     "jump", "--gap", "3", "--degree", "2"]) == 0
        assert capsys.readouterr().out == ""
        assert json.loads(target.read_text())["minimal_n"] == 2

    def test_json_runs_are_byte_identical(self, capsys):
        outputs = []
        for _ in range(2):
            assert main(["--format", "json", "free-locus", "--p", "2", "--n", "1",
                         "--test-algebra", "F2[e]/(e^2)"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_import_leaves_out_dataclasses_and_inspect(self):
        # A fresh interpreter, with -S so that no site .pth file preloads a
        # module and -E so that no environment variable adds one.
        src = str(pathlib.Path(cli.__file__).resolve().parents[1])
        probe = ("import sys; sys.path.insert(0, sys.argv[1]); import hopfdeform.cli; "
                 "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
        proc = subprocess.run([sys.executable, "-S", "-E", "-c", probe, src],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    @staticmethod
    def random_payload(rng, depth=0):
        """A seeded nest of the values a payload may hold."""
        kind = rng.randrange(9 if depth < 4 else 6)
        if kind == 0:
            return None
        if kind == 1:
            return rng.choice([True, False])
        if kind == 2:
            return rng.choice([0, -1, 7, -(10**25), 2**64, rng.randrange(-10**6, 10**6)])
        if kind < 6:
            return "".join(rng.choice('aZ09 "\\/\n\t\x00\x7fé⊗𝔽') for _ in range(rng.randrange(6)))
        if kind == 6:
            return {rng.choice(["", "é", "A", "b", "0"]) + str(i):
                    TestPlumbing.random_payload(rng, depth + 1)
                    for i in range(rng.randrange(5))}
        items = [TestPlumbing.random_payload(rng, depth + 1) for _ in range(rng.randrange(5))]
        return items if kind == 7 else tuple(items)

    def test_json_writer_matches_json_dumps(self):
        class Tag(str):
            pass

        class Level(enum.IntEnum):
            HIGH = 3

        class Count(int):
            def __repr__(self):
                return "Count()"

        rng = random.Random(2026)
        payloads = [self.random_payload(rng) for _ in range(400)]
        payloads += [{}, [], (), {"a": {}, "b": [[], {}]}, {Tag("k"): [Tag("v"), Level.HIGH, Count(4)]},
                     {"z": 1, "Z": 2, "é": 3, "": 4, "10": 5, "9": 6}]
        for payload in payloads:
            want = json.dumps(payload, indent=2, sort_keys=True) + "\n"
            assert cli.render("json", payload, [], None) == want

    @pytest.mark.parametrize("bad", [1.5, float("nan"), {1: "a"}, {"a": {None: 1}},
                                     [b"x"], {"a": {1, 2}}, ["ok", 2.0], object()])
    def test_json_writer_refuses_what_it_does_not_write(self, bad):
        with pytest.raises(TypeError):
            cli.render("json", bad, [], None)

    def test_console_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "hopfdeform.cli", "verify", "--p", "2"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "all 9 steps passed" in proc.stdout


# Command lines that cli._direct_parse declines, one or more per kind.  argparse
# ends each of these with --help (exit 0) or a usage error (exit 2) ...
ARGPARSE_EXITS = [
    ["-h"],
    ["--help"],
    ["jump", "-h"],
    ["jump", "--gap", "5", "--degree", "3", "--help"],
    [],                                                          # no command
    ["--format", "json"],                                        # no command
    ["jumps", "--gap", "5", "--degree", "3"],                    # unknown command
    ["jump", "--gap", "5"],                                      # missing option
    ["jump", "--gap", "5", "--degree"],                          # missing value
    ["jump", "--gap", "five", "--degree", "3"],                  # bad int
    ["--format", "xml", "jump", "--gap", "5", "--degree", "3"],  # bad choice
    ["dual", "--p", "2", "--name", "nu"],                        # bad choice
    ["jump", "--gap", "5", "--degree", "3", "--seed", "1"],      # unknown option
    ["jump", "--format", "json", "--gap", "5", "--degree", "3"],  # misplaced option
    ["verify", "--p", "2", "--slow", "yes"],                     # value of a store_true flag
    ["quotient", "--p", "2", "--kill", "--slow"],                # a flag for a value
    ["jump", "--", "--gap", "5", "--degree", "3"],
]

# ... and reads each of these, the first of a pair, as it reads the second.
ARGPARSE_FORMS = [
    (["--form", "json", "jump", "--gap", "5", "--degree", "3"],
     ["--format", "json", "jump", "--gap", "5", "--degree", "3"]),
    (["--format=json", "jump", "--gap=5", "--degree", "3"],
     ["--format", "json", "jump", "--gap", "5", "--degree", "3"]),
    (["--format", "json", "cohomology-table", "--max-n", "2", "--max-deg", "3", "--fib", "generic"],
     ["--format", "json", "cohomology-table", "--max-n", "2", "--max-degree", "3",
      "--fiber", "generic"]),
]

# Values that start with '-' are left to argparse, which takes a negative
# number as a value; the handlers then accept or refuse it.
ARGPARSE_NEGATIVES = [
    (["jump", "--gap", "5", "--degree", "3", "--bundle-dim", "-1"], 2),
    (["--format", "json", "free-locus", "--p", "2", "--n", "1", "--test-algebra", "F2",
      "--seed", "-5"], 0),
]


def _argparse_outcome(argv):
    """vars() of build_parser().parse_args(argv), or its exit code and output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return vars(cli.build_parser().parse_args(argv))
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


def _fuzzed_argvs(seed, count):
    """Command lines built from the option table, then bent a few tokens at a
    time toward the forms the direct parse leaves to argparse."""
    rng = random.Random(seed)
    commands = list(cli.COMMANDS)
    flags = sorted(set(cli.MAIN_OPTIONS).union(*(opts for _, opts in cli.COMMANDS.values())))
    samples = ["0", "1", "2", "3", "5", "7", "-1", "-3", " 4", "+2", "1_0", "x", "", "json",
               "csv", "pretty", "xml", "alpha_p", "mu", "special", "generic", "both",
               "F2[e]/(e^2)", "a=b", "-", "corrupt-antipode"]
    odd = ["-h", "--help", "--", "--p=3", "--format=json", "--gap=5", "--form", "--max",
           "--bund", "--te", "--deg", "-p", "--unknown", "--slow"]
    pool = commands + flags + samples + odd

    def value(spec):
        if rng.random() < 0.2:
            return rng.choice(samples)
        if "choices" in spec:
            return rng.choice(spec["choices"])
        if spec.get("type") is int:
            return str(rng.choice([0, 1, 2, 3, 5, 20, 10**6]))
        return rng.choice(["x", "out.json", "F2[e]/(e^2)"])

    def groups(options, every):
        out = []
        for flag, spec in options.items():
            if spec.get("required") or every or rng.random() < 0.5:
                out.append([flag] if spec.get("action") == "store_true" else [flag, value(spec)])
        rng.shuffle(out)
        return [token for group in out for token in group]

    for _ in range(count):
        command = rng.choice(commands)
        argv = (groups(cli.MAIN_OPTIONS, False) + [command]
                + groups(cli.COMMANDS[command][1], rng.random() < 0.2))
        for _ in range(rng.choice([0, 0, 1, 1, 2, 3])):
            at = rng.randrange(len(argv) + 1)
            kind = rng.randrange(4)
            if kind == 0:
                argv.insert(at, rng.choice(pool))
            elif kind == 1 and at < len(argv):
                del argv[at]
            elif kind == 2 and at < len(argv):
                argv[at] = rng.choice(pool)
            else:
                argv += argv[at:at + 2]  # a repeated flag, value or both
        yield argv


class TestDirectParse:
    """main reads the plain form of a command line from the option table and
    leaves every other form to argparse; both give the same namespace."""

    def test_table_uses_only_what_the_direct_parse_reads(self):
        known = {"type", "choices", "required", "default", "action", "help", "metavar",
                 "hidden"}
        for options in [cli.MAIN_OPTIONS] + [opts for _, opts in cli.COMMANDS.values()]:
            for flag, spec in options.items():
                assert flag.startswith("--") and set(spec) <= known, flag
                assert spec.get("type", str) in (int, str), flag
                assert spec.get("action", "store_true") == "store_true", flag
        assert set(cli.COMMANDS) == set(cli.HANDLERS)

    def test_agrees_with_argparse(self):
        spec = importlib.util.spec_from_file_location(
            "same_bytes", pathlib.Path(__file__).resolve().parent.parent / "tools" / "same_bytes.py")
        same_bytes = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(same_bytes)
        argvs = [list(argv) for argv in same_bytes.corpus()] + list(_fuzzed_argvs(23, 2000))
        read = declined = 0
        for argv in argvs:
            direct = cli._direct_parse(argv)
            expected = _argparse_outcome(argv)
            if direct is not None:
                assert vars(direct) == expected, argv
                read += 1
            if not isinstance(expected, dict):
                assert direct is None, argv
                declined += 1
        # Both sides of the oracle are exercised, not one of them.
        assert read > 500 and declined > 500, (read, declined)

    @pytest.mark.parametrize("argv", ARGPARSE_EXITS, ids=map(" ".join, ARGPARSE_EXITS))
    def test_help_and_usage_errors_come_from_argparse(self, capsys, argv):
        assert cli._direct_parse(argv) is None
        code, out, err = _argparse_outcome(argv)
        assert code == (0 if "-h" in argv or "--help" in argv else 2)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == code
        assert capsys.readouterr() == (out, err)

    @pytest.mark.parametrize("argv,plain", ARGPARSE_FORMS,
                             ids=[" ".join(argv) for argv, _ in ARGPARSE_FORMS])
    def test_forms_argparse_reads_give_the_plain_verdict(self, capsys, argv, plain):
        assert cli._direct_parse(argv) is None
        assert _argparse_outcome(argv) == vars(cli._direct_parse(plain))
        assert main(argv) == 0
        out = capsys.readouterr()
        assert main(plain) == 0
        assert capsys.readouterr() == out

    @pytest.mark.parametrize("argv,code", ARGPARSE_NEGATIVES,
                             ids=[" ".join(argv) for argv, _ in ARGPARSE_NEGATIVES])
    def test_negative_values_reach_the_handler(self, capsys, argv, code):
        assert cli._direct_parse(argv) is None
        assert main(argv) == code
        out, err = capsys.readouterr()
        if code:
            assert err == "error: --bundle-dim must be >= 0\n"
        else:
            assert json.loads(out)["seed"] == -5

    def run_fresh(self, probe):
        """The last line a fresh interpreter prints for probe, argv[1] the src dir."""
        src = str(pathlib.Path(cli.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-S", "-E", "-c",
                               "import sys; sys.path.insert(0, sys.argv[1])\n" + probe, src],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.splitlines()[-1]

    def test_success_path_leaves_out_argparse_gettext_and_csv(self):
        # -S and -E as in test_import_leaves_out_dataclasses_and_inspect.
        probe = ("import hopfdeform.cli\n"
                 "names = {'argparse', 'gettext', 'csv'}\n"
                 "after_import = sorted(names & set(sys.modules))\n"
                 "code = hopfdeform.cli.main(['--format', 'json', 'jump', '--gap', '5',"
                 " '--degree', '3'])\n"
                 "print(code, after_import, sorted(names & set(sys.modules)))")
        assert self.run_fresh(probe) == "0 [] []"

    def test_import_and_a_json_verdict_leave_out_json(self):
        # The JSON writer needs only the C string encoder, not the json package.
        probe = ("import hopfdeform.cli\n"
                 "after_import = 'json' in sys.modules\n"
                 "code = hopfdeform.cli.main(['--format', 'json', 'jump', '--gap', '5',"
                 " '--degree', '3'])\n"
                 "print(code, after_import, 'json' in sys.modules)")
        assert self.run_fresh(probe) == "0 False False"

    def test_string_encoder_is_the_json_packages(self):
        from json.encoder import encode_basestring_ascii
        assert cli.encode_basestring_ascii is encode_basestring_ascii

    def test_help_loads_argparse(self):
        probe = ("import hopfdeform.cli\n"
                 "try:\n"
                 "    hopfdeform.cli.main(['--help'])\n"
                 "except SystemExit as exc:\n"
                 "    print(exc.code, 'argparse' in sys.modules)")
        assert self.run_fresh(probe) == "0 True"


class TestJsonRecords:
    """Lists of uniform records are written column by column; every other
    value takes the recursive walk.  Both give json.dumps's text."""

    @staticmethod
    def dumps(value):
        return json.dumps(value, indent=2, sort_keys=True)

    @staticmethod
    def counted_records(monkeypatch):
        """Patch cli._json_records to record, per call, whether it took the list."""
        taken = []
        original = cli._json_records

        def counted(items, inner, heads):
            out = original(items, inner, heads)
            taken.append((len(items), out is not None))
            return out

        monkeypatch.setattr(cli, "_json_records", counted)
        return taken

    COLUMN_PATH = {
        "table rows": [{"n": n, "i": i, "fiber": f, "dim": 10**30 * n + i}
                       for n in (1, 2) for i in range(3) for f in ("generic", "gap")],
        "all-bool column": [{"ok": True, "name": "a"}, {"ok": False, "name": "b"}],
        "one item": [{"a": 1, "b": "x", "c": False}],
        "escaped keys": [{'"q"\\': 1, "é\n": "⊗", "Z": -2, "": ""},
                         {'"q"\\': 3, "é\n": "𝔽", "Z": 0, "": "\t"}],
        "percent in key and value": [{"100%": "%s", "%d": 5}, {"100%": "%%", "%d": 6}],
        "tuple of records": ({"k": 1}, {"k": 2}),
    }

    FALLBACK = {
        "mixed column": [{"a": 1}, {"a": "1"}],
        "int and bool column": [{"a": 1}, {"a": True}],
        "int enum value": [{"a": enum.IntEnum("Level", "LOW HIGH").HIGH}, {"a": 2}],
        "str subclass value": [{"a": type("Tag", (str,), {})("v")}, {"a": "w"}],
        "str subclass in a later item": [{"a": "v"}, {"a": type("Tag", (str,), {})("w")}],
        "differing key sets": [{"a": 1, "b": 2}, {"a": 1, "c": 2}],
        "fewer keys later": [{"a": 1, "b": 2}, {"a": 1}],
        "nested value": [{"a": 1, "b": [1, 2]}, {"a": 2, "b": []}],
        "nested value later": [{"a": 1}, {"a": {"x": None}}],
        "None value": [{"a": None}, {"a": None}],
        "empty dicts": [{}, {}],
        "empty dict later": [{"a": 1}, {}],
        "dict then scalar": [{"a": 1}, 3],
        "scalars": [1, "a", True, None],
        "lists": [[1], [2]],
    }

    @pytest.mark.parametrize("name", sorted(COLUMN_PATH))
    def test_column_path_matches_json_dumps(self, monkeypatch, name):
        taken = self.counted_records(monkeypatch)
        value = self.COLUMN_PATH[name]
        for payload in (value, {"rows": value, "n": 1}, [value, value]):
            assert cli._json_text(payload, "\n", {}) == self.dumps(payload)
        # once per copy of the list: alone, in a dict, and twice in a list
        assert [n for n, path in taken if path] == [len(value)] * 4

    @pytest.mark.parametrize("name", sorted(FALLBACK))
    def test_fallback_matches_json_dumps(self, monkeypatch, name):
        taken = self.counted_records(monkeypatch)
        value = self.FALLBACK[name]
        for payload in (value, {"rows": value}):
            assert cli._json_text(payload, "\n", {}) == self.dumps(payload)
        assert taken[0] == (len(value), False)

    def test_non_str_key_keeps_the_walk_error(self):
        for bad in ([{1: "a"}, {1: "b"}], [{"a": 1}, {2: 1}], [{"a": 1}, {(1,): 1}]):
            with pytest.raises(TypeError, match="^keys must be str, not (int|tuple)$"):
                cli._json_text(bad, "\n", {})
        # mixed key types fail in sorted(), as they do in the walk
        with pytest.raises(TypeError, match="^'<' not supported between"):
            cli._json_text([{"a": 1, 3: 4}], "\n", {})

    def test_seeded_record_lists(self):
        rng = random.Random(1808)
        kinds = (lambda: rng.randrange(-10**20, 10**20), lambda: rng.choice([True, False]),
                 lambda: "".join(rng.choice('a"\\%\né⊗') for _ in range(rng.randrange(4))))
        for _ in range(200):
            keys = rng.sample(["n", "i", "fiber", "dim", "%", "é", ""], rng.randrange(1, 5))
            column = {k: rng.choice(kinds) for k in keys}
            items = [{k: column[k]() for k in keys} for _ in range(rng.randrange(1, 6))]
            if rng.random() < 0.3:
                rng.choice(items)[rng.choice(keys)] = rng.choice([None, [], {}, 7, "s", False])
            assert cli._json_text(items, "\n", {}) == self.dumps(items)

    def test_table_rows_take_the_column_path(self, capsys, monkeypatch):
        taken = self.counted_records(monkeypatch)
        argv = ["--format", "json", "cohomology-table", "--max-n", "20", "--max-degree", "120"]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (len(payload["rows"]), True) in taken
        assert len(payload["rows"]) == 20 * 121 * 3


# Exit code and sha256 of the `--format json` stdout.  The digests were taken
# from the code before LinearMap.inverse, null_space and hopf_quotient shared
# one elimination routine; that routine must not change a byte of output.
PINNED_JSON = [
    (["verify", "--p", "2"], 0,
     "2baedbd63efebca9212ff779d3750fb1533f2822fffd2f312ed6c7a1d54cf8b2"),
    (["verify", "--p", "3"], 0,
     "fade76e314074e2d14dfed173fa22b1994579ab7ecfad5c9f2ff6f0552277911"),
    (["verify", "--p", "2", "--mutate", "drop-comul-t-term"], 1,
     "0d591479165ec934b51c4349dd1970c9ccafd5968b7c6625eb85a2e106e690f0"),
    (["verify", "--p", "2", "--mutate", "drop-comul-x-term"], 1,
     "87d3aa86a8f8808c6b189e9da703604e660696413f4ca18d6262593d2282ca2f"),
    (["verify", "--p", "2", "--mutate", "corrupt-antipode"], 1,
     "28326107be6f406642df69e4abf1dd859b9537b2de3e4428b4f5decc1e1db703"),
    (["verify", "--p", "3", "--mutate", "drop-comul-t-term"], 1,
     "f090e79a772d0f5cb90dce3b2281bda4340d2f7d242fd538cdfdf2be975ced64"),
    (["verify", "--p", "3", "--mutate", "drop-comul-x-term"], 1,
     "65f79936dece69828587c233b8bd3cff3582af2e99721ef11888998844ba0a13"),
    (["verify", "--p", "3", "--mutate", "corrupt-antipode"], 1,
     "a28690d862769c22dfdde7af209f9b76b30fd4b82338af73dfe2f37a72ab994a"),
    (["quotient", "--p", "3", "--kill", "x"], 0,
     "13862e2a8936da25257fd8b8d0dd5270117cc5dc4f4a746e92230dbdb59bfce2"),
    (["quotient", "--p", "3", "--kill", "y"], 1,
     "7c2e4763472aae5b0ea1508de04e0335ad85138bd0cbea32533fbe220e4bcd51"),
    (["quotient", "--p", "2", "--kill", "x,y"], 0,
     "a47341ca27fc4880079a8be5265ce2b47c07f98e509236846a5449599cc403a7"),
    (["dual", "--p", "3", "--fiber", "generic", "--power", "2", "--name", "mu"], 0,
     "ae70abfb22500a12e2a9094b2e9ba1238d6d1073deadaa372ce70119e3ef368f"),
    (["dual", "--p", "3", "--fiber", "generic", "--power", "2", "--name", "constant_cyclic"], 0,
     "a4de9f8ceba8ee4dc9d48fef798cfffb042b3ef62a42d40baa5a414186a95ebb"),
    (["dual", "--p", "5", "--fiber", "generic", "--power", "2", "--name", "mu"], 0,
     "1cfdfbfd147b435044196bd4ccbc29f115d51f3896cb1017be9381d4b4a8afc7"),
    (["dual", "--p", "5", "--fiber", "generic", "--power", "2", "--name", "constant_cyclic"], 0,
     "45141bd76da00efa395b085784b48c666456808beda7aeca602e441439d21e8c"),
    (["dual", "--p", "5", "--name", "alpha_p"], 0,
     "83b94b1d111bf485a660daf7523fa112c5e7926381a67845626d80988e7adbb4"),
    (["quotient", "--p", "5", "--kill", "x", "--slow"], 0,
     "b707ac0adfaa9c7bb0f512a0d9b894086049c6e3f37090c0f08d8e6a9db243cd"),
    (["quotient", "--p", "5", "--kill", "y", "--slow"], 1,
     "7cfb8bbab54e3cb8db0835018f069098964a48020c8149fba37e297932a78f59"),
    (["cohomology-table", "--max-n", "20", "--max-degree", "120"], 0,
     "c2a6ab2b3d7c2851f594b440bcea05eb74c53daee9154aae4201fbc022fb28ba"),
    (["cohomology-table", "--fiber", "special"], 0,
     "82c05ac9ebba331ffe704c3e77b26f1b38a089fcd6ed1d64623778b8725976ef"),
    (["jump", "--gap", "1000000", "--degree", "1"], 0,
     "490d3016ca8d455bfaefd7e54b58b9d6ab1658325cfb1ecce46b22897c701ddb"),
    (["jump", "--gap", "999", "--degree", "7", "--bundle-dim", "2"], 0,
     "7537f1fd3c055ccd9eb415a3a19ab62693227a064d7c6a5bb26775d8d01d0da0"),
    (["jump", "--gap", "5", "--degree", "4", "--bundle-dim", "0"], 0,
     "dcbfa1b5ff53d1c021653a943b72444281cb035eae63445e0aac43bc17a427b8"),
    (["free-locus", "--p", "3", "--n", "2", "--test-algebra", "F3[e]/(e^2)",
      "--trials", "1000", "--seed", "5"], 0,
     "4bd5954343976df703c6be4021d321a8d749b39c1b23f4b7bc1f851e6982fd40"),
    (["free-locus", "--p", "2", "--n", "1", "--test-algebra", "F2[e,d]/(e^2,d^2)"], 0,
     "c06b513a9fd899b9ed9f9e38bcb88e2aedca8680e1a19502649754a7b3ab2eb7"),
    (["free-locus", "--p", "5", "--n", "1", "--test-algebra", "F5[e]/(e^2)",
      "--trials", "200", "--seed", "7"], 0,
     "f5ada2314979dd1e83f4b4a9f4cd44e6deb0b9af1f01cedb8a410d00edafd5e1"),
    (["free-locus", "--p", "3", "--n", "1", "--test-algebra", "F3[e]/(e^3)"], 0,
     "2d8a29d292b1e56973fd8add6b6f476a69fc6a71d105d6f0c8ad53348131ce88"),
]


# Exit code and sha256 of the stdout of the renderings that PINNED_JSON does
# not cover: the table rows are formatted lazily, and the free-locus lines
# report what the residue-vector search counted; both stay byte-identical.
PINNED_RENDERINGS = [
    (["cohomology-table", "--max-n", "20", "--max-degree", "120"], 0,
     "505ea7bb0be194e3dbeaac3f248183f175980d772e4d62809ebb6c7c0a434942"),
    (["--format", "csv", "cohomology-table", "--max-n", "20", "--max-degree", "120"], 0,
     "51c5d4cc9625b24edb3b893a749f9b60f68f16e4bb30a10301a9e675c05e34a5"),
    (["free-locus", "--p", "3", "--n", "2", "--test-algebra", "F3[e]/(e^2)",
      "--trials", "1000", "--seed", "5"], 0,
     "c11b1171717dbe12c65b38b97726a5a6dfa301ae92e9c4daba77c8187a8025d5"),
    (["free-locus", "--p", "2", "--n", "1", "--test-algebra", "F2[e,d]/(e^2,d^2)"], 0,
     "4d47eff793c86dc52d847726a0b1525294f8e9313c0e1763b06dae2de1b14486"),
]


class TestPinnedOutput:
    @pytest.mark.parametrize("argv,code,digest", PINNED_JSON,
                             ids=[" ".join(argv) for argv, _, _ in PINNED_JSON])
    def test_json_stdout_digest(self, capsys, argv, code, digest):
        assert main(["--format", "json"] + argv) == code
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_verify_p5_slow_digest_and_its_large_steps_on_residues(self, capsys, monkeypatch):
        # The digest CI pins.  The base-ring axioms, the generic-fiber axioms
        # and the generic dual (once 8-12 s between them) run no kernel on
        # ring elements: their structures are checked at t = 1.
        calls = {"verify_axioms": [], "exhibit_isomorphism": []}
        ring_kernels = []
        for owner, kernel in ((hopf.HopfAlgebra, "square_mult"), (hopf.HopfAlgebra, "vec_mult"),
                              (LinearMap, "apply")):
            real = getattr(owner, kernel)

            def counting(obj, *args, real=real, kernel=kernel):
                if obj.modulus is None:
                    ring_kernels.append(kernel)
                return real(obj, *args)
            monkeypatch.setattr(owner, kernel, counting)
        for name in calls:
            real = getattr(cli, name)

            def wrapper(*args, real=real, name=name):
                before = len(ring_kernels)
                try:
                    return real(*args)
                finally:
                    calls[name].append(len(ring_kernels) - before)
            monkeypatch.setattr(cli, name, wrapper)
        assert main(["--format", "json", "verify", "--p", "5", "--slow"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "400a3745afcbea15b9669aff2066d5af5609893a19a16cb7a9a5888c047d0a66")
        # verify_axioms: base ring, special fiber, generic fiber, quotient;
        # exhibit_isomorphism: special split, generic multiplicative, generic dual.
        assert len(calls["verify_axioms"]) == 4 and len(calls["exhibit_isomorphism"]) == 3
        assert calls["verify_axioms"][0] == calls["verify_axioms"][2] == 0
        assert calls["exhibit_isomorphism"][2] == 0

    @pytest.mark.parametrize("argv,code,digest", PINNED_RENDERINGS,
                             ids=[" ".join(argv) for argv, _, _ in PINNED_RENDERINGS])
    def test_table_rendering_digest(self, capsys, monkeypatch, argv, code, digest):
        monkeypatch.delenv(cli.FORMAT_ENV_VAR, raising=False)
        assert main(argv) == code
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest
