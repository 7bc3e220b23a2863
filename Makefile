PY ?= python3
CLI ?= PYTHONPATH=src $(PY) -m fracstab
EXAMPLES := 1 2 3 4 5 6 7

.PHONY: test golden ops outputs outputs-diff bench-tables bench-smoke check

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
# re-run on the doubled mesh.  One solve and one verify-ops also write their
# CSV through --out and --report, to $(OUT)/<request>.csv.  The requests
# share a private table store (XDG_CACHE_HOME), a fresh empty one removed
# afterwards, or STORE=dir kept for the next run, so a run with a filled
# store compares too.
# Usage: make outputs OUT=dir [STORE=dir]
outputs:
	@test -n "$(OUT)" || { echo "usage: make outputs OUT=dir [STORE=dir]" >&2; exit 2; }
	mkdir -p $(OUT)
	$(if $(STORE),export XDG_CACHE_HOME=$(abspath $(STORE)),store=$$(mktemp -d) && trap 'rm -rf "$$store"' EXIT && export XDG_CACHE_HOME=$$store); \
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
	run solve5-n256-out solve problems/example5.json --n 256 --out $(OUT)/solve5-n256-out.csv; \
	run verify-ops verify-ops; \
	run verify-ops-64-128 verify-ops --n-list 64,128; \
	run verify-ops-64-128-report verify-ops --n-list 64,128 --report $(OUT)/verify-ops-64-128-report.csv

# Compare two `make outputs` directories and show that only numbers moved
# (see tools/outputs_diff.py).  Usage: make outputs-diff A=dir B=dir
outputs-diff:
	@test -n "$(A)" -a -n "$(B)" || { echo "usage: make outputs-diff A=dir B=dir" >&2; exit 2; }
	@$(PY) tools/outputs_diff.py "$(A)" "$(B)"

# Time example 5's plain and weighted table builds (n = 256, 1024, 2048),
# the import of fracstab.cli, the four cli-large requests with an empty and
# with a filled table store and the 14 cli-small requests with a filled one,
# each the median of fresh processes, and write
# them with the host's numpy, SIMD features and peak RSS to $(OUT).  BASE=dir
# measures a checkout of another commit in alternation on the same host.
# Usage: make bench-tables OUT=file.json [BASE=dir] [REPEATS=5]
bench-tables:
	@test -n "$(OUT)" || { echo "usage: make bench-tables OUT=file.json [BASE=dir]" >&2; exit 2; }
	$(PY) tools/bench_tables.py --out $(OUT) --repeats $(or $(REPEATS),5) $(if $(BASE),--baseline $(BASE))

# Run the benchmark's smoke tests: they drive the library the way the
# benchmark does (Solution.iterations, the operator= keywords, the
# certificate constructors), so a change under src that breaks it shows here.
# Then run one small traced cli-small cycle, which fails if the layer tracer
# counts no rhs evaluation or no Mittag-Leffler call (tools/trace_smoke.py).
bench-smoke:
	$(PY) -m pytest perfbench/test_smoke.py -q -p no:cacheprovider
	$(PY) tools/trace_smoke.py

# The gate a change passes against a checkout of its parent: tier-1, the
# benchmark's smoke tests, then this Makefile's `outputs` recipe in both
# trees, so both answer the same requests, first with an empty and then with
# the filled table store, each pair compared with `diff -r`.  Exits non-zero
# on any failure or difference.  Last it prints the line total of
# src/fracstab in both trees, which the gate does not judge.
# Usage: make check BASE=dir
check:
	@test -n "$(BASE)" || { echo "usage: make check BASE=dir" >&2; exit 2; }
	$(MAKE) test
	$(MAKE) bench-smoke
	tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	for run in empty filled; do \
		$(MAKE) -C "$(abspath $(BASE))" -f "$(abspath $(firstword $(MAKEFILE_LIST)))" outputs \
			OUT=$$tmp/base-$$run STORE=$$tmp/base-store && \
		$(MAKE) outputs OUT=$$tmp/change-$$run STORE=$$tmp/change-store && \
		diff -r $$tmp/base-$$run $$tmp/change-$$run || exit 1; \
		echo "make outputs, $$run store: no difference"; \
	done
	@echo "src/fracstab lines: base $$(cat $(abspath $(BASE))/src/fracstab/*.py | wc -l)," \
		"change $$(cat src/fracstab/*.py | wc -l)"
