#!/usr/bin/env bash
# Builds cmd/doradod and the perfbench program from the checkout's
# sources, then runs perfbench with this script's arguments:
#
#   bash perfbench/run.sh --workload emulate --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Binaries, the Go build cache, span
# files and the durable stores all stay under .bench_build/. The stores
# directory is a private memory-backed filesystem, mounted in a mount
# namespace of the benchmark's own: the latency of the shared virtual
# disk drifts from run to run and would swamp the program's. Where no
# such namespace can be made, the script fails.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/doradod || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a dorado checkout (go.mod, cmd/doradod and perfbench/ are required)" >&2
	exit 2
fi

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/config" "$out/work"
# Keep every file the Go tool writes inside the checkout.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false

go build -o "$out/bin/doradod" ./cmd/doradod
(cd perfbench && go build -o "$out/bin/perfbench" .)

bench=("$out/bin/perfbench" -doradod "$out/bin/doradod" -workdir "$out/work" -spans "$out" -repo "$root" "$@")
mount='mount -t tmpfs -o size=1g perfbench "$0" && exec "$@"'
if ! unshare --user --map-root-user --mount sh -c "$mount" "$out/work" true; then
	echo "perfbench: cannot mount a private memory-backed filesystem for the stores (unshare --user --mount)" >&2
	exit 1
fi
exec unshare --user --map-root-user --mount sh -c "$mount" "$out/work" "${bench[@]}"
