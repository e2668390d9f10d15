#!/usr/bin/env bash
# Tier-1 gate: lint (when available) + the full test suite.
#
# Mirrors .github/workflows/ci.yml so the same command works locally.
# ruff is optional on purpose: the simulation container ships only the
# python toolchain, so the lint step degrades to a loud notice instead
# of failing the run when the binary is absent.
set -euo pipefail
cd "$(dirname "$0")/.."

if command -v ruff >/dev/null 2>&1; then
    echo "== ruff check =="
    ruff check src tests scripts benchmarks
else
    echo "== ruff not installed; skipping lint (config in pyproject.toml) =="
fi

echo "== pytest (tier 1) =="
PYTHONPATH=src python -m pytest -x -q "$@"

echo "== bench gate: engine speed + open-loop SLO =="
PYTHONPATH=src python scripts/bench_gate.py \
    --only sim-engine-speed,openloop-slo
