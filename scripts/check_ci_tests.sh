#!/usr/bin/env bash
# CI test-name gate: every name listed in a -run, -bench or -fuzz pattern
# of .github/workflows/ci.yml must name a func Test…, Benchmark… or
# Fuzz… declared in a _test.go file of this repository. `go test -run X`
# exits 0 when X matches nothing, so without this gate a renamed test
# silently turns its CI step into a no-op.
#
# A pattern is split on "|" after stripping ^( … )$. Names of an anchored
# pattern (^…$) must match a function exactly; names of an unanchored one
# must be a prefix of one. The empty pattern ^$ (run no tests) is skipped.
# A name that is not a plain Go identifier cannot be checked and fails.
# YAML comment lines are skipped.
#
# Run from anywhere in the repo; CI fails the build on any finding.
set -euo pipefail
cd "$(dirname "$0")/.."

ci=.github/workflows/ci.yml
funcs=$(grep -rhoE --include='*_test.go' --exclude-dir=.git --exclude-dir=.bench_build '^func (Test|Benchmark|Fuzz)[A-Za-z0-9_]*' . | sed 's/^func //' | sort -u)

fail=0
while IFS= read -r pat; do
	anchored=0
	case "$pat" in '^'*'$') anchored=1 ;; esac
	body=${pat#^}
	body=${body%\$}
	body=${body#(}
	body=${body%)}
	IFS='|' read -ra names <<<"$body"
	for name in "${names[@]}"; do
		[ -z "$name" ] && continue
		if [[ ! "$name" =~ ^[A-Za-z_][A-Za-z0-9_]*$ ]]; then
			echo "ci.yml pattern '$pat': cannot check name '$name'" >&2
			fail=1
			continue
		fi
		if [ "$anchored" -eq 1 ]; then
			grep -qx "$name" <<<"$funcs" && continue
		else
			grep -q "^$name" <<<"$funcs" && continue
		fi
		echo "ci.yml pattern '$pat': no test function matches '$name'" >&2
		fail=1
	done
done < <(grep -v '^[[:space:]]*#' "$ci" |
	grep -oE -- "-(run|bench|fuzz)[ =]('[^']*'|\"[^\"]*\"|[^ '\"]+)" |
	sed -E "s/^-(run|bench|fuzz)[ =]//; s/^['\"]//; s/['\"]$//")

if [ "$fail" -ne 0 ]; then
	echo "rename the CI pattern together with the test it names" >&2
fi
exit "$fail"
