#!/usr/bin/env bash
# Reachability gate: every func and method declared in a non-test file
# under internal/ must be linked into at least one binary, or be listed
# in scripts/reachable.allow with the reason it is kept.
#
# It builds every main package (./cmd/..., ./examples/... and the bench
# module's driver) with inlining off (-gcflags=all=-l), so a small helper
# cannot hide inside its caller, into a temporary directory; reads their
# text symbols with `go tool nm`; and compares them with the declarations
# in internal/. Generic instantiations count for their declaration.
#
# It fails on an unlinked name missing from the allow list, on an allow
# entry without a reason, and on an allow entry that is linked or no
# longer declared (so the list cannot go stale). Run from anywhere in the
# repo; it writes nothing into the repo.
set -euo pipefail
cd "$(dirname "$0")/.."

allow=scripts/reachable.allow
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

go build -gcflags=all=-l -o "$tmp/bin/" ./cmd/... ./examples/...
(cd bench && go build -gcflags=all=-l -o "$tmp/bin/bench" .)

# Linked symbols, as pkg.Func, pkg.T.Method or pkg.(*T).Method relative
# to bcclap/internal/, with type arguments stripped.
for bin in "$tmp"/bin/*; do
  go tool nm "$bin"
done | awk '$(NF-1) == "T" && index($NF, "bcclap/internal/") == 1 { print substr($NF, 17) }' |
  sed -E ':a; s/\[[^][]*\]//; ta' | sort -u >"$tmp/linked"

# Declared funcs and methods in the same naming, from gofmt'd sources.
for f in $(find internal -name '*.go' ! -name '*_test.go' | sort); do
  pkg=$(dirname "${f#internal/}")
  sed -nE \
    -e 's/^func \(([A-Za-z_0-9]+ )?\*([A-Za-z_0-9]+)(\[[^]]*\])?\) ([A-Za-z_0-9]+).*/(*\2).\4/p' \
    -e 's/^func \(([A-Za-z_0-9]+ )?([A-Za-z_0-9]+)(\[[^]]*\])?\) ([A-Za-z_0-9]+).*/\2.\4/p' \
    -e 's/^func ([A-Za-z_0-9]+).*/\1/p' "$f" |
    sed -e "/^init$/d" -e "s|^|$pkg.|"
done | sort -u >"$tmp/declared"

comm -23 "$tmp/declared" "$tmp/linked" >"$tmp/unlinked"
grep -vE '^[[:space:]]*(#|$)' "$allow" >"$tmp/entries" || true
awk '{ print $1 }' "$tmp/entries" | sort -u >"$tmp/allowed"
comm -23 "$tmp/unlinked" "$tmp/allowed" >"$tmp/missing"
comm -13 "$tmp/unlinked" "$tmp/allowed" >"$tmp/stale"

fail=0
if awk 'NF < 2 { print "  " $1; bad = 1 } END { exit !bad }' "$tmp/entries" >"$tmp/noreason"; then
  echo "allow entries without a reason ($allow):" >&2
  cat "$tmp/noreason" >&2
  fail=1
fi
if [ -s "$tmp/missing" ]; then
  echo "declared under internal/ but linked into no binary (delete it, or add it to $allow with a reason):" >&2
  sed 's/^/  /' "$tmp/missing" >&2
  fail=1
fi
if [ -s "$tmp/stale" ]; then
  echo "stale entries in $allow (linked into a binary, or no longer declared):" >&2
  sed 's/^/  /' "$tmp/stale" >&2
  fail=1
fi
exit "$fail"
