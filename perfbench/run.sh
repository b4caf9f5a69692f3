#!/usr/bin/env bash
# Builds the ddvis request benchmark from source and runs it.
#
#   bash perfbench/run.sh --workload tour|batch|verify --seed N --seconds S --trace 0|1
#
# Run from the repository root. Every build artefact (binary, Go build
# cache, Go environment files) stays under .bench_build/ in the current
# directory, so nothing outside the checkout is written. Without the
# repository next to perfbench/ the build fails and the script exits
# non-zero without printing a result.
set -euo pipefail

root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gopath" "$out/config"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --out-dir "$out/perfbench-out" "$@"
