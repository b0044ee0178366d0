#!/usr/bin/env bash
# Builds the benchmark and the buckwild binary from this checkout's source,
# then runs one workload:
#
#   bash perfbench/run.sh --workload <sim-sweep|train-host|serve-train> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# Everything it builds or writes lands under .bench_build/ at the checkout
# root (Go build cache included), so a run reads and writes only inside the
# checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ ! -f go.mod || ! -d cmd/buckwild ]]; then
	echo "perfbench: $root holds no buckwild source tree (go.mod, cmd/buckwild) to build" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local TMPDIR="$out/tmp"
(cd perfbench && go build -o "$out/perfbench" .)
go build -o "$out/buckwild" ./cmd/buckwild
exec "$out/perfbench" -buckwild "$out/buckwild" -work "$out" "$@"
