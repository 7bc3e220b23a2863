"""Compare two ``make outputs`` directories and show that only numbers moved.

For each file that differs it prints the largest relative and absolute
change of its numeric tokens.  Integer tokens (exit codes, iteration
counts, seeds, n) must match exactly.  It exits 1 when any other token
differs (labels, verdicts, PASS/FAIL lines, missing files) or when the two
files hold different numbers of tokens, and 0 otherwise.

    python tools/outputs_diff.py A B
"""

from __future__ import annotations

import os
import re
import sys
from pathlib import Path

NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")
INTEGER = re.compile(r"[-+]?\d+")


def pieces(path: str) -> list[str]:
    """Text and number tokens alternately, text with its whitespace collapsed."""
    parts = NUMBER.split(Path(path).read_text(encoding="utf-8", errors="replace"))
    return [" ".join(p.split()) if k % 2 == 0 else p for k, p in enumerate(parts)]


def compare(pa: str, pb: str) -> tuple[str, bool]:
    """The report line for two differing files, and whether it is a failure."""
    name = os.path.basename(pa)
    xa, xb = pieces(pa), pieces(pb)
    if len(xa) != len(xb):
        return f"{name}: token count {len(xa)} != {len(xb)}", True
    rel = absd = 0.0
    moved = 0
    for k, (s, t) in enumerate(zip(xa, xb)):
        if s == t:
            continue
        if k % 2 == 0 or INTEGER.fullmatch(s) and INTEGER.fullmatch(t):
            return f"{name}: changed token {s!r} != {t!r}", True
        u, v = float(s), float(t)
        moved += 1
        if u != v:
            absd = max(absd, abs(u - v))
            rel = max(rel, abs(u - v) / max(abs(u), abs(v)))
    line = f"{name}: {moved} numbers moved, max rel {rel:.3e}, max abs {absd:.3e}"
    return line, False


def main(argv: list[str]) -> int:
    a, b = argv
    bad = 0
    for name in sorted(set(os.listdir(a)) | set(os.listdir(b))):
        pa, pb = os.path.join(a, name), os.path.join(b, name)
        if not (os.path.isfile(pa) and os.path.isfile(pb)):
            print(f"{name}: only in {a if os.path.isfile(pa) else b}")
            bad += 1
        elif Path(pa).read_bytes() != Path(pb).read_bytes():
            line, failed = compare(pa, pb)
            print(line)
            bad += failed
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
