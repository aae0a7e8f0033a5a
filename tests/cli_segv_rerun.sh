#!/bin/sh
# Usage: cli_segv_rerun.sh MELODY
#
# The crashtest figure's victim point segfaults at --jobs 1. The
# crash kills melody (exit 139), but the two points that finished
# before the victim are already in the run cache, so the rerun takes
# exactly those two from it, computes the other three, and matches
# an uncached render byte for byte.
melody=$1
dir=$(mktemp -d) || exit 1
trap 'rm -rf "$dir"' EXIT

fail() {
    echo "$why"
    cat "$dir/err"
    exit 1
}

# Run the crash in a child shell, so its exit status reads 128+11
# whatever shell runs this script.
sh -c 'MELODY_CRASHTEST_MODE=segv exec "$1" sweep --jobs 1 \
    --cache-dir "$2/rc" crashtest >"$2/out" 2>"$2/err"' \
    sh "$melody" "$dir"
rc=$?
[ "$rc" -eq 139 ] || { why="segv: exit $rc, want 139"; fail; }
[ ! -s "$dir/out" ] || { why="segv: output on stdout"; fail; }
"$melody" cache stats --cache-dir "$dir/rc" >"$dir/err" 2>&1
grep -q ': 2 entries' "$dir/err" ||
    { why="segv: want the 2 pre points stored"; fail; }

MELODY_CRASHTEST_MODE=ok "$melody" sweep --jobs 1 \
    --cache-dir "$dir/rc" crashtest >"$dir/rerun" 2>"$dir/err" ||
    { why="rerun failed"; fail; }
grep -q '5 point(s), 2 cache hit(s), 3 store(s)' "$dir/err" ||
    { why="rerun did not take exactly the 2 stored points"; fail; }
MELODY_CRASHTEST_MODE=ok "$melody" sweep --no-cache crashtest \
    >"$dir/clean" 2>"$dir/err" || { why="clean run failed"; fail; }
cmp -s "$dir/clean" "$dir/rerun" ||
    { why="rerun bytes differ from an uncached render"; fail; }
exit 0
