PY ?= python3
CLI ?= PYTHONPATH=src $(PY) -m fracstab
EXAMPLES := 1 2 3 4 5 6 7

.PHONY: test golden ops outputs outputs-diff

test:
	$(PY) -m pytest -q

# Regenerate the frozen certificates the CLI tests compare against.
golden:
	mkdir -p problems/golden
	for i in $(EXAMPLES); do \
		$(CLI) certify problems/example$$i.json --json \
			> problems/golden/example$$i.certificate.json; \
	done

ops:
	$(CLI) verify-ops

# Write the CLI outputs a change must keep byte for byte: stdout, stderr and
# exit code of each request go to $(OUT)/<request>.{out,err,exit}, so a
# parent and a change compare with `diff -r`.  Examples 1 and 5 also run
# with their Lipschitz constants removed (inputs written to
# $(OUT)/example<i>-estimated.json), which takes the estimated-constants
# path.  Examples 1 and 7 also run perturb with understated constants (k/50,
# l = 0; inputs in $(OUT)/example<i>-understated.json), so every trial is
# re-run on the doubled mesh.  Usage: make outputs OUT=dir
outputs:
	@test -n "$(OUT)" || { echo "usage: make outputs OUT=dir" >&2; exit 2; }
	mkdir -p $(OUT)
	run() { name=$$1; shift; $(CLI) "$$@" > $(OUT)/$$name.out 2> $(OUT)/$$name.err; \
		echo $$? > $(OUT)/$$name.exit; }; \
	for i in $(EXAMPLES); do \
		run certify$$i certify problems/example$$i.json --json; \
		run solve$$i-n256 solve problems/example$$i.json --n 256; \
		run solve$$i-n1024 solve problems/example$$i.json --n 1024; \
		run perturb$$i perturb problems/example$$i.json --n 128 --trials 5; \
	done; \
	for i in 1 5 7; do run solve$$i-n2048 solve problems/example$$i.json --n 2048; done; \
	for i in 1 5; do \
		est=$(OUT)/example$$i-estimated.json; \
		$(PY) -c 'import json, sys; d = json.load(open(sys.argv[1])); del d["lipschitz"]; json.dump(d, open(sys.argv[2], "w"), indent=2)' \
			problems/example$$i.json $$est; \
		run certify$$i-estimated certify $$est --json; \
		run solve$$i-estimated-n256 solve $$est --n 256; \
		run perturb$$i-estimated perturb $$est --n 128 --trials 5; \
	done; \
	for i in 1 7; do \
		$(PY) -c 'import json, sys; d = json.load(open(sys.argv[1])); d["lipschitz"] = {"k": d["lipschitz"]["k"] / 50, "l": 0.0}; json.dump(d, open(sys.argv[2], "w"), indent=2)' \
			problems/example$$i.json $(OUT)/example$$i-understated.json; \
	done; \
	run perturb1-understated perturb $(OUT)/example1-understated.json --n 32 --trials 3 --shape constant; \
	run perturb7-understated perturb $(OUT)/example7-understated.json --n 32 --trials 3 --shape phi_scaled; \
	run verify-ops verify-ops; \
	run verify-ops-64-128 verify-ops --n-list 64,128

# Compare two `make outputs` directories and show that only numbers moved.
# For each file that differs it prints the largest relative and absolute
# change of its numeric tokens.  Integer tokens (exit codes, iteration
# counts, seeds, n) must match exactly.  It exits 1 when any other token
# differs (labels, verdicts, PASS/FAIL lines, missing files) or when the
# two files hold different numbers of tokens.  Usage: make outputs-diff A=dir B=dir
define OUTPUTS_DIFF_PY
import os, re, sys
from pathlib import Path
number = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")
integer = re.compile(r"[-+]?\d+")
def pieces(path):
    parts = number.split(Path(path).read_text(encoding="utf-8", errors="replace"))
    return [" ".join(p.split()) if k % 2 == 0 else p for k, p in enumerate(parts)]
a, b = sys.argv[1:3]
names = sorted(set(os.listdir(a)) | set(os.listdir(b)))
bad = 0
for name in names:
    pa, pb = os.path.join(a, name), os.path.join(b, name)
    if not (os.path.isfile(pa) and os.path.isfile(pb)):
        print(f"{name}: only in {a if os.path.isfile(pa) else b}")
        bad += 1
        continue
    if Path(pa).read_bytes() == Path(pb).read_bytes():
        continue
    xa, xb = pieces(pa), pieces(pb)
    if len(xa) != len(xb):
        print(f"{name}: token count {len(xa)} != {len(xb)}")
        bad += 1
        continue
    rel = absd = 0.0
    moved = 0
    why = None
    for k, (s, t) in enumerate(zip(xa, xb)):
        if s == t:
            continue
        if k % 2 == 0 or integer.fullmatch(s) and integer.fullmatch(t):
            why = f"{s!r} != {t!r}"
            break
        u, v = float(s), float(t)
        moved += 1
        if u != v:
            absd = max(absd, abs(u - v))
            rel = max(rel, abs(u - v) / max(abs(u), abs(v)))
    if why:
        print(f"{name}: changed token {why}")
        bad += 1
    else:
        print(f"{name}: {moved} numbers moved, max rel {rel:.3e}, max abs {absd:.3e}")
sys.exit(1 if bad else 0)
endef
export OUTPUTS_DIFF_PY

outputs-diff:
	@test -n "$(A)" -a -n "$(B)" || { echo "usage: make outputs-diff A=dir B=dir" >&2; exit 2; }
	@$(PY) -c "$$OUTPUTS_DIFF_PY" "$(A)" "$(B)"
