#!/usr/bin/env bash
# Prints the Go lines a change adds and removes, non-test and test code
# (files ending in _test.go) apart, with the net of each, from
# `git diff --numstat BASE`. BASE defaults to HEAD: with no argument it
# counts the uncommitted change, where a new file counts once it is
# staged (git add -A, or git add -N). Run it from the repository root:
#
#   bash testdata/ledger/lines.sh          # working tree against HEAD
#   bash testdata/ledger/lines.sh HEAD~1   # the last commit, plus any uncommitted change
set -euo pipefail
git diff --no-renames --numstat "${1:-HEAD}" -- '*.go' | awk '
	$1 == "-" { next }
	{ k = $3 ~ /_test\.go$/ ? "test" : "non-test"; add[k] += $1; del[k] += $2 }
	END {
		split("non-test test", kinds, " ")
		for (i = 1; i <= 2; i++) {
			k = kinds[i]
			printf "%s Go: +%d -%d, net %+d\n", k, add[k], del[k], add[k] - del[k]
		}
	}'
