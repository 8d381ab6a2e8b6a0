"""Check that two source trees print the same bytes for a fixed command corpus.

Usage:
    python3 tools/same_bytes.py BEFORE AFTER [--report PATH]

BEFORE and AFTER are roots of two hopfdeform checkouts (each holds
src/hopfdeform).  Every command of the corpus runs once per tree, each run in
a fresh interpreter with PYTHONPATH=<tree>/src, in a scratch working
directory and without HOPFDEFORM_FORMAT.  The two runs of a command agree
when their exit codes, stdout sha256 and stderr sha256 agree.  Pretty
`verify` output prints each step's wall time; those figures are blanked
before hashing, and nothing else is.

The corpus is read from the checkout this script lives in, not copied:
- PINNED_JSON and PINNED_RENDERINGS from tests/test_cli.py, and the command
  lines it leaves to argparse (ARGPARSE_EXITS, ARGPARSE_FORMS and
  ARGPARSE_NEGATIVES: help, each kind of usage error, abbreviated and
  `--flag=value` forms, negative values);
- every `python -m hopfdeform.cli` command in .github/workflows/tests.yml;
- every benchmark job of perfbench/workloads.py at seeds 1 and 2;
and to these it adds every mutation at p = 2 and 3 (JSON and pretty), `dual`
over every name, fiber and power at p = 2, 3 and 5, `--help` of the program
and of each command, and the prime refusals.  Commands repeated across
sources run once.

The last line of stdout is a summary; --report writes every command's two
records as JSON.  The exit status is 0 when every command agrees and 1
otherwise.  Nothing gates on it; it is run by hand, with the parent commit
as BEFORE.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMAND_TIMEOUT_S = 600
# "  [pass] build  (0.012 s)" in pretty verify output
_STEP_TIMING = re.compile(rb"^(  \[(?:pass|FAIL)\] \S+)  \(\d+\.\d{3} s\)$", re.M)
_CI_COMMAND = re.compile(r"python -m hopfdeform\.cli (.+?) >")


def _pinned() -> list[tuple[str, ...]]:
    import test_cli

    return ([("--format", "json", *argv) for argv, _, _ in test_cli.PINNED_JSON]
            + [tuple(argv) for argv, _, _ in test_cli.PINNED_RENDERINGS]
            + [tuple(argv) for argv in test_cli.ARGPARSE_EXITS]
            + [tuple(argv) for pair in test_cli.ARGPARSE_FORMS for argv in pair]
            + [tuple(argv) for argv, _ in test_cli.ARGPARSE_NEGATIVES])


def _ci_pins() -> list[tuple[str, ...]]:
    text = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    return [tuple(shlex.split(m.group(1))) for m in _CI_COMMAND.finditer(text)]


def _benchmark_jobs() -> list[tuple[str, ...]]:
    import workloads

    return [job.argv for seed in (1, 2) for w in workloads.WORKLOADS
            for job in workloads.jobs_for(w, seed)]


def _added() -> list[tuple[str, ...]]:
    from hopfdeform.cli import HANDLERS
    from hopfdeform.hopf import MUTATIONS

    out = [(*fmt, "verify", "--p", str(p), "--mutate", m)
           for p in (2, 3) for m in sorted(MUTATIONS) for fmt in (("--format", "json"), ())]
    out += [("--format", "json", "dual", "--p", str(p), "--fiber", fiber, "--power", str(k),
             "--name", name)
            for p in (2, 3, 5) for fiber in ("special", "generic") for k in (1, 2)
            for name in ("alpha_p", "mu", "constant_cyclic")]
    out += [(command, "--help") for command in HANDLERS]
    out += [("--help",), ("verify", "--p", "7"), ("verify", "--p", "5"), ("verify", "--p", "4"),
            ("dual", "--p", "7", "--name", "mu")]
    return out


def corpus() -> list[tuple[str, ...]]:
    """Every command, in first-seen order, without repeats."""
    sys.path[:0] = [str(ROOT / d) for d in ("src", "tests", "perfbench")
                    if str(ROOT / d) not in sys.path]
    commands = _pinned() + _ci_pins() + _benchmark_jobs() + _added()
    return list(dict.fromkeys(tuple(c) for c in commands))


def run(tree: Path, argv, workdir: str) -> dict:
    """Exit code and output digests of one command run on one tree."""
    env = dict(os.environ, PYTHONPATH=str(Path(tree).resolve() / "src"))
    env.pop("HOPFDEFORM_FORMAT", None)
    proc = subprocess.run([sys.executable, "-m", "hopfdeform.cli", *argv], cwd=workdir,
                          env=env, capture_output=True, timeout=COMMAND_TIMEOUT_S)
    out, blanked = proc.stdout, 0
    if "verify" in argv:
        out, blanked = _STEP_TIMING.subn(rb"\1", out)
    return {"code": proc.returncode, "stdout_sha256": hashlib.sha256(out).hexdigest(),
            "stderr_sha256": hashlib.sha256(proc.stderr).hexdigest(),
            "timings_blanked": blanked}


def compare(before: Path, after: Path, commands) -> list[dict]:
    """One record per command: both runs and the fields in which they differ."""
    records = []
    with tempfile.TemporaryDirectory() as workdir:
        for argv in commands:
            a, b = run(before, argv, workdir), run(after, argv, workdir)
            records.append({"argv": list(argv), "before": a, "after": b,
                            "differs": [k for k in ("code", "stdout_sha256", "stderr_sha256")
                                        if a[k] != b[k]]})
    return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("before", type=Path)
    parser.add_argument("after", type=Path)
    parser.add_argument("--report", type=Path, default=None,
                        help="write every command's records here as JSON")
    args = parser.parse_args(argv)
    records = compare(args.before, args.after, corpus())
    differ = [r for r in records if r["differs"]]
    for r in differ:
        print(f"DIFFERS ({', '.join(r['differs'])}): {shlex.join(r['argv'])}")
    if args.report is not None:
        args.report.write_text(json.dumps(records, indent=1) + "\n")
    blanked = sum(r["before"]["timings_blanked"] > 0 for r in records)
    print(f"{len(records)} commands, {len(records) - len(differ)} identical, "
          f"{len(differ)} differ; step timings blanked in {blanked} pretty verify outputs")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
