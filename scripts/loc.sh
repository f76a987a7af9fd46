#!/bin/sh
# Prints the non-test Go lines of each package directory — every line
# of every .go file whose name does not end in _test.go — and then
# their total. With no arguments it counts the whole tree, the bench
# module included; arguments, given relative to the repository root,
# narrow it to those directories and the packages below them:
#
#	sh scripts/loc.sh
#	sh scripts/loc.sh internal/blast internal/align internal/seq
set -eu
cd "$(dirname "$0")/.."
[ $# -gt 0 ] || set -- .
find "$@" -path '*/.*' -prune -o -name '*.go' ! -name '*_test.go' -print |
	while read -r f; do
		printf '%s %s\n' "$(wc -l <"$f")" "$(dirname "$f" | sed 's|^\./||')"
	done |
	awk '{ n[$2] += $1; t += $1 }
	END { for (d in n) printf "%7d  %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d  total\n", t }'
