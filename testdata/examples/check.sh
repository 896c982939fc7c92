#!/usr/bin/env bash
# Runs every program under examples/ and compares its stdout with
# testdata/examples/<name>.txt, byte for byte. A failing program fails
# the check. --update rewrites the files after an intended output
# change. Run it from the repository root:
#
#   bash testdata/examples/check.sh
#   bash testdata/examples/check.sh --update
set -euo pipefail
dir=testdata/examples
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
fail=0
for d in examples/*/; do
	n=$(basename "$d")
	echo "== $n"
	go run "./$d" > "$out/$n.txt"
	if [ "${1:-}" = --update ]; then
		cp "$out/$n.txt" "$dir/$n.txt"
	elif ! diff -u "$dir/$n.txt" "$out/$n.txt"; then
		echo "examples/$n: stdout differs from $dir/$n.txt" >&2
		fail=1
	fi
done
exit "$fail"
