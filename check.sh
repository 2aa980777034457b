#!/bin/sh
# CI-style check: byte-compile everything, run the module doctests,
# run the documentation gates (executable docs examples, API-symbol
# imports, relative links), then tier-1.  Perf gates stay opt-in
# (`pytest -m perf`), matching the benchmarks/ pattern.
set -eu
cd "$(dirname "$0")"
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== compileall =="
python -m compileall -q src benchmarks examples tests tools

echo "== doctests (dialect grammar + session + rng) =="
# A module whose doctests all vanished fails here instead of passing
# silently over zero examples.
python - repro.query.parser repro.session repro.utils.rng <<'EOF'
import doctest
import importlib
import sys

for name in sys.argv[1:]:
    failed, attempted = doctest.testmod(importlib.import_module(name))
    if failed or not attempted:
        sys.exit(f"doctest {name}: {failed} failed of {attempted}")
EOF

# SKIP_DOCS=1 skips the docs gates (used by the CI matrix job, where the
# dedicated `docs` job is the single owner of these checks).
if [ "${SKIP_DOCS:-0}" != "1" ]; then
    echo "== docs gates (README + docs/: examples run, API imports, links) =="
    python tools/check_docs.py
fi

echo "== tier-1 tests =="
python -m pytest -x -q

echo "== shm leak check (no surviving repro-shm-* segments) =="
python tools/check_shm_leaks.py

echo "check.sh: all green"
