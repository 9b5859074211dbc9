#!/usr/bin/env bash
# Compares several runs of `go run ./cmd/experiments` line by line and
# fails when they differ on a line that EXPERIMENTS.md's "Schedule-dependent
# outputs" list does not name. The list is the fenced block of that section:
# one "<experiment ID> <extended regex>" per line; a differing line passes
# when, in every run, it matches a pattern of the experiment it belongs to.
#
# Usage: schedule-check.sh EXPERIMENTS.md run1.txt run2.txt [run3.txt ...]
set -euo pipefail

doc=$1
shift
first=$1
shift

patterns=$(awk '
	/^## / { in_sec = ($0 == "## Schedule-dependent outputs"); next }
	in_sec && /^```/ { fenced = !fenced; next }
	in_sec && fenced && NF { print }
' "$doc")
if [ -z "$patterns" ]; then
	echo "schedule-check: no patterns under \"Schedule-dependent outputs\" in $doc" >&2
	exit 1
fi

status=0
for run in "$@"; do
	if [ "$(wc -l <"$first")" != "$(wc -l <"$run")" ]; then
		echo "schedule-check: $first and $run differ in length" >&2
		status=1
		continue
	fi
	paste -d '\n' "$first" "$run" | awk -v patterns="$patterns" -v a="$first" -v b="$run" '
		BEGIN {
			n = split(patterns, lines, "\n")
			for (i = 1; i <= n; i++) {
				id[i] = lines[i]; sub(/ .*/, "", id[i])
				re[i] = lines[i]; sub(/^[^ ]+ /, "", re[i])
			}
		}
		NR % 2 == 1 { x = $0; next }
		{
			y = $0
			if (x ~ /^## E[0-9]+ /) { split(x, h, " "); sec = h[2] }
			if (x == y) next
			ok = 0
			for (i = 1; i <= n && !ok; i++)
				ok = id[i] == sec && x ~ re[i] && y ~ re[i]
			if (!ok) {
				printf "schedule-check: %s line %d differs from %s, outside the list:\n< %s\n> %s\n", b, NR / 2, a, x, y
				bad = 1
			}
		}
		END { exit bad }
	' || status=1
done
exit $status
