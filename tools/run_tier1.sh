#!/usr/bin/env bash
# Tier-1 gate: configure, build everything with -Wall -Wextra -Werror (on
# top of the project's -Wshadow -Wnon-virtual-dtor), so any new warning
# fails the build, then run the full test suite. Run from anywhere; builds
# into <repo>/build.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${repo}/build"
jobs="$(nproc 2>/dev/null || echo 4)"

cmake -S "${repo}" -B "${build}" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-Wall -Wextra -Werror"
cmake --build "${build}" -j "${jobs}"
ctest --test-dir "${build}" --output-on-failure -j "${jobs}"
