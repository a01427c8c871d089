#!/usr/bin/env bash
# medcc_cachectl on cache directories written by earlier builds: inspect
# counts the records per cache-record version, verify fails on them, and
# compact drops them, says how many, and leaves a directory that
# verifies.
#
# usage: tools/cachectl_smoke.sh CACHECTL GOLDEN_DIR
set -euo pipefail

CACHECTL="$1"
GOLDEN="$2"
workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

fail() { echo "cachectl_smoke: FAIL: $*" >&2; exit 1; }

# expect_line OUTPUT PATTERN: OUTPUT must contain a line matching PATTERN.
expect_line() {
  grep -qE "$2" <<<"$1" || fail "expected /$2/ in:"$'\n'"$1"
}

# check FIXTURE INSPECT_PATTERN COMPACT_PATTERN
check() {
  local dir="$workdir/$1"
  mkdir -p "$dir"
  cp "$GOLDEN/$1" "$dir/journal.mdjl"
  echo "== $1"
  local out
  out="$("$CACHECTL" inspect "$dir")"
  echo "$out"
  expect_line "$out" "$2"
  if out="$("$CACHECTL" verify "$dir")"; then
    fail "verify passed on $1"
  fi
  out="$("$CACHECTL" compact "$dir")"
  echo "$out"
  expect_line "$out" "$3"
  out="$("$CACHECTL" verify "$dir")" || fail "verify after compact: $out"
  expect_line "$out" '^snapshot: 0 records'
  expect_line "$out" '^journal: 0 records'
}

check cache_v1_solves.mdjl '^journal: 4 records, [0-9]+ valid bytes, 4 v1$' \
  '^compact: 0 entries \(0 superseded, 4 older-version dropped, 0 undecodable dropped\)$'
check cache_v2_solves.mdjl '^journal: 4 records, [0-9]+ valid bytes, 4 v2$' \
  '^compact: 0 entries \(0 superseded, 4 older-version dropped, 0 undecodable dropped\)$'
# One v2 record, then an empty payload and "xyz", which no version decodes.
check cache_v2_record_file.mdjl \
  '^journal: 3 records, [0-9]+ valid bytes, 1 v2, 2 undecodable$' \
  '^compact: 0 entries \(0 superseded, 1 older-version dropped, 2 undecodable dropped\)$'
echo "cachectl_smoke: ok"
