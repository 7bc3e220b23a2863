"""Record which lines of ``src/fracstab`` CLI requests execute, and list the rest.

    python3 tools/line_trace.py run HITS -- <fracstab arguments>
    python3 tools/line_trace.py report HITS

``run`` calls ``fracstab.cli.main`` in this process under the standard
library's ``trace`` module (``sys.settrace``), imports included, and merges
the package lines it executed into the JSON file HITS (created when
missing).  It prints nothing of its own and exits
with main's code, so it can stand in for the CLI:

    make outputs OUT=d CLI='PYTHONPATH=src python3 tools/line_trace.py run d/hits.json --'

traces every request of ``make outputs`` and writes the same outputs.
``report`` prints, for each module of the package, the executable lines
(the line numbers of its compiled code) that no merged run reached.
Standard library only.
"""

from __future__ import annotations

import json
import os
import sys
import trace
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fracstab"


def _main(argv: list[str]) -> int:
    from fracstab.cli import main  # imported under the trace: module lines count

    return main(argv)


def run(hits_path: str, argv: list[str]) -> int:
    tracer = trace.Trace(count=1, trace=0)
    try:
        return tracer.runfunc(_main, argv)
    except SystemExit as exc:  # argparse's usage errors
        return exc.code if isinstance(exc.code, int) else 1
    finally:
        path = Path(hits_path)
        hits: dict[str, set[int]] = {}
        if path.exists():
            hits = {name: set(lines) for name, lines in json.loads(path.read_text()).items()}
        for filename, line in tracer.results().counts:
            module = Path(os.path.abspath(filename))
            if module.parent == PACKAGE:
                hits.setdefault(module.name, set()).add(line)
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(json.dumps({k: sorted(v) for k, v in sorted(hits.items())}))
        os.replace(tmp, path)


def executable_lines(path: Path) -> set[int]:
    """Line numbers of the module's code objects, nested ones included
    (line 0, which marks code before the first line, is left out)."""
    lines: set[int] = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def _ranges(lines: list[int]) -> str:
    parts: list[str] = []
    start = prev = lines[0]
    for line in lines[1:] + [None]:
        if line is not None and line == prev + 1:
            prev = line
            continue
        parts.append(str(start) if start == prev else f"{start}-{prev}")
        if line is not None:
            start = prev = line
    return ", ".join(parts)


def report(hits_path: str) -> int:
    hits = json.loads(Path(hits_path).read_text())
    for module in sorted(PACKAGE.glob("*.py")):
        missed = sorted(executable_lines(module) - set(hits.get(module.name, ())))
        if missed:
            print(f"{module.name}: {len(missed)} never ran: {_ranges(missed)}")
        else:
            print(f"{module.name}: every line ran")
    return 0


def main(argv: list[str]) -> int:
    if len(argv) >= 3 and argv[0] == "run" and argv[2] == "--":
        return run(argv[1], argv[3:])
    if len(argv) == 2 and argv[0] == "report":
        return report(argv[1])
    print(__doc__.split("\n\n")[1], file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
