PY ?= python3
CLI ?= PYTHONPATH=src $(PY) -m fracstab
EXAMPLES := 1 2 3 4 5 6 7

.PHONY: test golden ops

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
