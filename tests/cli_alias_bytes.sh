#!/bin/sh
# Usage: cli_alias_bytes.sh MELODY NAME ALIAS
#
# `melody sweep --no-cache NAME` and `melody sweep --no-cache ALIAS`
# must both succeed and print the same bytes.
melody=$1
dir=$(mktemp -d) || exit 1
trap 'rm -rf "$dir"' EXIT

"$melody" sweep --no-cache "$2" >"$dir/name" 2>/dev/null ||
    { echo "sweep $2 failed"; exit 1; }
"$melody" sweep --no-cache "$3" >"$dir/alias" 2>/dev/null ||
    { echo "sweep $3 failed"; exit 1; }
[ -s "$dir/name" ] || { echo "sweep $2 printed nothing"; exit 1; }
cmp "$dir/name" "$dir/alias" ||
    { echo "sweep $3 differs from sweep $2"; exit 1; }
exit 0
