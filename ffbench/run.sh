#!/usr/bin/env bash
# Builds ffbench from the sources of the checkout it is run from and
# runs it with the given arguments, e.g.
#
#   bash ffbench/run.sh --workload serve-hot --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The Go build cache and the binary
# go to .bench_build/ (or $CARGO_TARGET_DIR when set), so nothing is
# written outside the checkout. Outside a full checkout (the parent
# module missing) the build fails and the script exits non-zero
# without printing a result.
set -euo pipefail

root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"

export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOPATH="$out/go-path"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off GOENV=off
commit=unknown
if [ -e "$root/.git" ]; then
  commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
fi
export FFBENCH_COMMIT="$commit"

(cd "$root/ffbench" && go build -o "$out/ffbench" .)
exec "$out/ffbench" "$@"
