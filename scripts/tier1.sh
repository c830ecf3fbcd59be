#!/usr/bin/env bash
# Tier-1 verification: full build + test suite, then the concurrent serve/
# telemetry tests again under ThreadSanitizer and once more with telemetry
# compiled out (-DKALMMIND_TELEMETRY=OFF).  The ^Serve regex includes
# the self-healing, chaos and blackbox suites (docs/robustness.md); the
# ^Telemetry regex includes the concurrent flight-recorder record/dump
# test (docs/observability.md).  KALMMIND_FAULTS defaults ON, so the
# gated chaos tests run under TSan too.
#
# Usage: scripts/tier1.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier1: release build + full test suite =="
cmake -B build -S .
cmake --build build -j"$(nproc)"
ctest --test-dir build --output-on-failure -j"$(nproc)"

echo
echo "== tier1: kalmmind-lint over the repo tree =="
./build/tools/lint/kalmmind-lint --root .

echo
echo "== tier1: kalmmind-rtcheck over the repo tree =="
./build/tools/lint/kalmmind-rtcheck --root .

echo
echo "== tier1: serve + telemetry tests under ThreadSanitizer =="
cmake -B build-tsan -S . \
  -DKALMMIND_TSAN=ON \
  -DKALMMIND_BUILD_BENCH=OFF \
  -DKALMMIND_BUILD_EXAMPLES=OFF
cmake --build build-tsan -j"$(nproc)" --target test_serve test_telemetry
ctest --test-dir build-tsan -R '^Serve|^Telemetry' --output-on-failure

echo
echo "== tier1: serve + telemetry tests with telemetry compiled out =="
# The same build flag as CI's telemetry-compiled-out job: every registry
# counter and the flight recorder compile to no-ops, so a test that reads a
# counter delta without a telemetry::kCompiledIn guard fails here.
cmake -B build-notel -S . \
  -DKALMMIND_TELEMETRY=OFF \
  -DKALMMIND_BUILD_BENCH=OFF \
  -DKALMMIND_BUILD_EXAMPLES=OFF
cmake --build build-notel -j"$(nproc)" --target test_serve test_telemetry
ctest --test-dir build-notel -R '^Serve|^Telemetry' --output-on-failure

echo
echo "tier1: OK"
