#!/usr/bin/env bash
# Repo check driver: the tier-1 build + full test suite, then the frame-
# dispatch and failure-handling test labels (core, faults, observability,
# snapshot, overload, raster, transport, dedup, fleet, soak, wire, codec) rebuilt
# and rerun under AddressSanitizer and ThreadSanitizer (CMakeLists.txt
# GB_SANITIZE), and the rasterizer/codec identity suites rerun with
# GB_SIMD=OFF to prove the vectorized hot paths are bit-exact against the
# scalar build.
#
#   scripts/check.sh                   # tier-1 + asan + tsan + nosimd
#   scripts/check.sh tier1             # just the tier-1 build + full ctest
#   scripts/check.sh asan tsan         # just the sanitizer configurations
#   scripts/check.sh nosimd            # just the GB_SIMD=OFF identity run
#   scripts/check.sh soak              # fast soak tier: ctest -L soak under
#                                      # both sanitizers (the long tier is
#                                      # bench/run_benchmarks.sh bench_soak)
#
# Secondary builds live in build-asan/, build-tsan/ and build-nosimd/ so
# they never disturb the primary build/ tree.
set -euo pipefail

cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"
# The frame-dispatch suites (runtime, session and presenter tests plus the
# dispatch golden pins, which drive the one deferred-encode path every
# session takes), the recovery/observability/overload suites, which is
# where sanitizer findings have historically lived (races in the frame
# pipeline, lifetime bugs in the failure and shedding paths), the
# tile-binned raster scheduler (concurrent tile rasterization + fused tile
# encode, the lane-batched shader VM and the draw-path tests), the
# FEC/multipath transport (adversarial parity parsing, crafted-datagram
# reassembly), the shared record store (one mutex-guarded store touched
# by concurrent sessions, lease-pinned pointer stability), and the fleet
# migration machinery (snapshot transfer + slot swap with frames still in
# flight), and the soak/chaos harness (session teardown with node-id
# reuse, invariant-audit probes over every long-lived table), and the
# wire replay hardening (crafted records plus the call-table-driven
# structural fuzz of every opcode, where an over-read or an allocation sized
# by an unchecked count shows up first under ASan), and the codecs (the
# word-wide bit reader's loads near the end of a payload, the Huffman
# lookup table, and the tile-parallel decoder's reconstruct on a shared
# pool). -L takes a regex; one call covers all twelve labels.
SAN_LABELS='core|faults|observability|snapshot|overload|raster|transport|dedup|fleet|soak|wire|codec'
# Suites whose outputs must not change when GB_SIMD is toggled: the
# rasterizer identity tests (the shader VM and draw tests among them), the
# codec/LZ4 bitstream tests, and the wire golden, whose replayed-pixel hash
# is pinned.
NOSIMD_LABELS='raster|codec|wire'

run_tier1() {
  echo "==> tier-1: default build + full ctest"
  cmake -B build -S . >/dev/null
  cmake --build build -j "${JOBS}"
  ctest --test-dir build --output-on-failure -j "${JOBS}"
}

run_sanitizer() {
  local name="$1" dir="build-${1}" flag="$2"
  echo "==> ${name}: GB_SANITIZE=${flag} build + ctest -L '${SAN_LABELS}'"
  cmake -B "${dir}" -S . -DGB_SANITIZE="${flag}" >/dev/null
  cmake --build "${dir}" -j "${JOBS}"
  ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}" -L "${SAN_LABELS}"
}

# Fast soak tier: just the soak-labelled suites (short chaos runs, churn
# regressions, thermal placement) under both sanitizer configurations —
# the highest-value slice when iterating on harness or lifetime code.
run_soak() {
  local name dir flag
  for name in asan tsan; do
    dir="build-${name}"
    case "${name}" in
      asan) flag=address ;;
      tsan) flag=thread ;;
    esac
    echo "==> soak/${name}: GB_SANITIZE=${flag} build + ctest -L soak"
    cmake -B "${dir}" -S . -DGB_SANITIZE="${flag}" >/dev/null
    cmake --build "${dir}" -j "${JOBS}"
    ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}" -L soak
  done
}

run_nosimd() {
  echo "==> nosimd: GB_SIMD=OFF build + ctest -L '${NOSIMD_LABELS}'"
  cmake -B build-nosimd -S . -DGB_SIMD=OFF >/dev/null
  cmake --build build-nosimd -j "${JOBS}"
  ctest --test-dir build-nosimd --output-on-failure -j "${JOBS}" \
        -L "${NOSIMD_LABELS}"
}

if [ "$#" -eq 0 ]; then
  set -- tier1 asan tsan nosimd
fi

for step in "$@"; do
  case "${step}" in
    tier1) run_tier1 ;;
    asan) run_sanitizer asan address ;;
    tsan) run_sanitizer tsan thread ;;
    nosimd) run_nosimd ;;
    soak) run_soak ;;
    *) echo "unknown step '${step}' (expected tier1|asan|tsan|nosimd|soak)" >&2
       exit 2 ;;
  esac
done

echo "==> all checks passed"
