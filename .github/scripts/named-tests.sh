#!/usr/bin/env bash
# usage: named-tests.sh PKG TestA TestB ...
#
# Runs exactly the named top-level tests of PKG under -race -v and fails
# unless every one of them printed "--- PASS". `go test -run 'A|B'` exits 0
# when a name matches nothing, so without the count a renamed or deleted
# acceptance test drops out of CI silently.
set -euo pipefail
pkg=$1
shift
pattern="^($(IFS='|'; echo "$*"))\$"
out=$(mktemp)
go test -race -v -run "$pattern" "$pkg" | tee "$out"
for name in "$@"; do
  if ! grep -q "^--- PASS: $name " "$out"; then
    echo "named test $name did not pass in $pkg (renamed or deleted?)" >&2
    exit 1
  fi
done
echo "all $# named tests of $pkg passed"
