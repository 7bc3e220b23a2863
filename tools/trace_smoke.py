"""Check that the benchmark's layer tracer still sees the rhs and the series.

The tracer counts calls by rebinding names in each module's namespace after
import, so code that holds a function under another name (say, in a table
built at import) hides its calls: the counts read 0 while the benchmark's
smoke tests still pass.  This script runs one traced `cli-small` cycle at
smoke-test size (seed 7) and fails if `rhs_expr.evaluations` or
`specfun.ml_calls` reads 0, or if the run reports a wrong output.

Usage: python3 tools/trace_smoke.py
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
COUNTS = ("rhs_expr.evaluations", "specfun.ml_calls")


def main() -> int:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "cli-small",
         "--seed", "7", "--seconds", "3", "--trace", "1", "--tiny"],
        capture_output=True, text=True, cwd=ROOT,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        return 1
    result = json.loads(proc.stdout.splitlines()[-1])
    failed = [] if result["correct"] else ["the traced run reports a wrong output"]
    for name in COUNTS:
        value = result["metrics"][name]["value"]
        print(f"{name}: {value}")
        if not value:
            failed.append(f"{name} reads 0: the tracer no longer sees these calls")
    for reason in failed:
        print(f"error: {reason}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
