#!/usr/bin/env bash
# Builds the benchmark and the vedranalyzerd binary it drives into
# .bench_build/ at the checkout root, then runs the benchmark from there.
# Everything the build and the run write stays inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS= GOWORK=off GOTOOLCHAIN=local
(cd "$root/benchmark" && go build -buildvcs=false -o "$build/bin/" . vedrfolnir/cmd/vedranalyzerd) >&2
cd "$root"
exec "$build/bin/benchmark" -daemon "$build/bin/vedranalyzerd" "$@"
