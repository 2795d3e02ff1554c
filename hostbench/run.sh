#!/usr/bin/env bash
# Builds the host-time benchmark from source and runs it, from the root
# of a checkout:
#
#   bash hostbench/run.sh --workload noise-p64 --seed 1 --seconds 20 --trace 0
#
# With "all" in place of --workload it runs every workload in turn, each
# in a process of its own (peak_rss_mb is per process):
#
#   bash hostbench/run.sh all --seconds 20 --trace 0
#
# The build cache, the binary and the replay trace files stay under
# .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/hostbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/hostbench" && go build -o "$out/hostbench" .) >&2
if [ "${1:-}" = all ]; then
	shift
	for w in sinusoid-p8 noise-p64 torus-p1; do
		"$out/hostbench" -trace-dir "$out" --workload "$w" "$@"
	done
else
	exec "$out/hostbench" -trace-dir "$out" "$@"
fi
