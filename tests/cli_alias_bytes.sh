#!/bin/sh
# Usage: cli_alias_bytes.sh MELODY NAMES SELECTION...
#
# `melody sweep --no-cache NAMES` (one argument, split on spaces)
# and `melody sweep --no-cache SELECTION...` must both succeed and
# print the same bytes.
melody=$1
name=$2
shift 2
dir=$(mktemp -d) || exit 1
trap 'rm -rf "$dir"' EXIT

# shellcheck disable=SC2086
"$melody" sweep --no-cache $name >"$dir/name" 2>/dev/null ||
    { echo "sweep $name failed"; exit 1; }
"$melody" sweep --no-cache "$@" >"$dir/selection" 2>/dev/null ||
    { echo "sweep $* failed"; exit 1; }
[ -s "$dir/name" ] || { echo "sweep $name printed nothing"; exit 1; }
cmp "$dir/name" "$dir/selection" ||
    { echo "sweep $* differs from sweep $name"; exit 1; }
exit 0
