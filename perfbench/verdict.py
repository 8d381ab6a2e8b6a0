"""Run one hopfdeform verdict in this fresh interpreter and report it as JSON.

Usage: python3 perfbench/verdict.py TRACE ARGV...

TRACE is 0 or 1.  The reference loop (reference.py) runs first, then the
package is imported; the moment the import completes is reported so the
caller can compute set-up time against the moment it started this
interpreter.  Then ``hopfdeform.cli.main(ARGV)`` runs with stdout and stderr
captured, timed on its own, and the reference loop runs again.  The last
line written to stdout is one JSON record: exit code, captured output,
verdict seconds, both reference timings, peak resident set and, with
TRACE 1, the per-boundary trace.
"""

import sys
import time

import reference

REFERENCE_BEFORE = reference.measure()

import hopfdeform.cli  # noqa: E402

IMPORTED_AT = time.monotonic()

import contextlib  # noqa: E402  (after the set-up timestamp on purpose)
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402


def main(trace: bool, argv: list[str]) -> dict:
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            code = hopfdeform.cli.main(argv)
            verdict_s = time.perf_counter() - start
    finally:
        unrestored = tracer.restore() if tracer else []
    reference_after = reference.measure()
    record = {
        "code": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "imported_at": IMPORTED_AT,
        "verdict_s": verdict_s,
        "reference": [REFERENCE_BEFORE, reference_after],
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer:
        record["trace"] = tracer.report()
        record["trace"]["unrestored"] = unrestored
    return record


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1] == "1", sys.argv[2:])))
