#!/usr/bin/env bash
# End-to-end benchmark of the ppatc reproduction (see README.md).
#
#   bench/e2e/run.sh                    build, then every workload untraced and traced
#   bench/e2e/run.sh --workload optimize --seed 7 --seconds 20 --trace 0
#   bench/e2e/run.sh compare <runs A...> -- <runs B...>
#
# Builds bench/e2e (the ppatc libraries, the ten paper-artifact binaries and
# ppatc_bench) in Release into build-bench/ at the repo root, then runs
# ppatc_bench. Build output goes to stderr, so the last stdout line of a
# single run is its JSON result. Exits non-zero if the build fails or any
# output is wrong.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/build-bench"

if [[ ! -f "$root/CMakeLists.txt" || ! -d "$root/src" ]]; then
  echo "run.sh: no ppatc source tree at $root" >&2
  exit 1
fi

mkdir -p "$build/tmp"
export TMPDIR="$build/tmp"  # compiler temporaries stay inside the tree
jobs="$(nproc)"
if (( jobs > 4 )); then jobs=4; fi
if [[ ! -f "$build/CMakeCache.txt" ]]; then
  cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" --target ppatc_bench -j "$jobs" >&2

if [[ "${1:-}" == compare ]]; then
  exec "$build/ppatc_bench" "$@"
fi

git_sha=unknown
if command -v git >/dev/null 2>&1 &&
   [[ "$(git -C "$root" rev-parse --show-toplevel 2>/dev/null)" == "$root" ]]; then
  git_sha="$(git -C "$root" rev-parse --short HEAD)"
  if [[ -n "$(git -C "$root" status --porcelain --untracked-files=no)" ]]; then
    git_sha="$git_sha-dirty"
  fi
fi

if (( $# > 0 )); then
  exec "$build/ppatc_bench" --git "$git_sha" "$@"
fi

status=0
for workload in paper_repro optimize uncertainty embench_mix; do
  for trace in 0 1; do
    "$build/ppatc_bench" --git "$git_sha" --workload "$workload" --seed 1 --seconds 20 \
      --trace "$trace" || status=1
  done
done
exit "$status"
