#!/usr/bin/env bash
# Runs every program under examples/ and compares its stdout with
# testdata/examples/<name>.txt, byte for byte but for one number:
# examples/evmd prints the daemon's peak queue depth, which depends on
# when its two workers pick up the two runs, so "peak-queue=<n>" is
# masked on both sides. A failing program fails the check. --update
# rewrites the files after an intended output change. Run it from the
# repository root:
#
#   bash testdata/examples/check.sh
#   bash testdata/examples/check.sh --update
set -euo pipefail
dir=testdata/examples
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
mask() { sed -E 's/peak-queue=[0-9]+/peak-queue=N/' "$1"; }
fail=0
for d in examples/*/; do
	n=$(basename "$d")
	echo "== $n"
	go run "./$d" > "$out/$n.txt"
	if [ "${1:-}" = --update ]; then
		cp "$out/$n.txt" "$dir/$n.txt"
	elif ! diff -u <(mask "$dir/$n.txt") <(mask "$out/$n.txt"); then
		echo "examples/$n: stdout differs from $dir/$n.txt" >&2
		fail=1
	fi
done
exit "$fail"
