#!/usr/bin/env bash
# Compares this checkout's work ledger with testdata/ledger/seed1.json:
# every deterministic metric of the three perfbench workloads at seed 1.
# Prints each metric that moved with its ledger and current value, and
# exits 1 if any did. Run it from the repository root:
#
#   bash testdata/ledger/check.sh           # compare with the ledger
#   bash testdata/ledger/check.sh --update  # rewrite the ledger's values
#
# The ledger's "excluded" map names every metric left out, with the
# reason; --update keeps it as it is.
set -euo pipefail
ledger=testdata/ledger/seed1.json
out=${CARGO_TARGET_DIR:-.bench_build}/ledger
mkdir -p "$out"
for w in cell campus service; do
	if ! bash perfbench/run.sh --workload "$w" --seed 1 --seconds 1 --trace 1 >"$out/$w.json" 2>"$out/$w.err"; then
		cat "$out/$w.err" >&2
		exit 1
	fi
done
current=$(jq -n --slurpfile l "$ledger" \
	--slurpfile cell "$out/cell.json" --slurpfile campus "$out/campus.json" --slurpfile service "$out/service.json" \
	'$l[0].excluded as $ex
	| {cell: $cell[0], campus: $campus[0], service: $service[0]}
	| map_values(.metrics | with_entries(select($ex[.key] == null) | .value = .value.value))')
if [ "${1:-}" = --update ]; then
	jq --argjson cur "$current" '.workloads = $cur' "$ledger" >"$out/seed1.json"
	mv "$out/seed1.json" "$ledger"
	exit 0
fi
moved=$(jq -rn --slurpfile l "$ledger" --argjson cur "$current" '
	$l[0].workloads as $old
	| ($old | keys[]) as $w
	| (($old[$w] | keys) + ($cur[$w] | keys) | unique[]) as $k
	| select($old[$w][$k] != $cur[$w][$k])
	| "\($w) \($k): \($old[$w][$k]) -> \($cur[$w][$k])"')
if [ -n "$moved" ]; then
	echo "work ledger moved (workload metric: ledger -> now):" >&2
	echo "$moved" >&2
	exit 1
fi
echo "work ledger: every metric equals $ledger"
