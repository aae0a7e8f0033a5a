#!/bin/sh
# Usage: cli_point_throws.sh MELODY
#
# The crashtest figure's victim point throws. melody must report the
# exception and exit 1 (not abort, not print usage), render nothing,
# and leave every point that finished in the run cache, so a rerun
# recomputes only the victim and matches an uncached render.
melody=$1
dir=$(mktemp -d) || exit 1
trap 'rm -rf "$dir"' EXIT

fail() {
    echo "$why"
    cat "$dir/err"
    exit 1
}

MELODY_CRASHTEST_MODE=exception "$melody" sweep --no-cache crashtest \
    >"$dir/out" 2>"$dir/err"
rc=$?
[ "$rc" -eq 1 ] || { why="no-cache: exit $rc, want 1"; fail; }
[ ! -s "$dir/out" ] || { why="no-cache: output on stdout"; fail; }
grep -q 'melody sweep: error: crashtest exception' "$dir/err" ||
    { why="no-cache: stderr lacks the exception"; fail; }
if grep -q 'usage:\|terminate called' "$dir/err"; then
    why="no-cache: usage text or abort on stderr"; fail
fi

# --jobs 1: the four healthy points finish around the victim.
MELODY_CRASHTEST_MODE=exception "$melody" sweep --jobs 1 \
    --cache-dir "$dir/rc" crashtest >"$dir/out" 2>"$dir/err"
rc=$?
[ "$rc" -eq 1 ] || { why="cached: exit $rc, want 1"; fail; }
"$melody" cache stats --cache-dir "$dir/rc" >"$dir/err" 2>&1
grep -q ': 4 entries' "$dir/err" ||
    { why="cached: want 4 stored points"; fail; }

MELODY_CRASHTEST_MODE=ok "$melody" sweep --jobs 1 \
    --cache-dir "$dir/rc" crashtest >"$dir/rerun" 2>"$dir/err" ||
    { why="rerun failed"; fail; }
grep -q '4 cache hit(s), 1 store(s)' "$dir/err" ||
    { why="rerun recomputed more than the victim"; fail; }
MELODY_CRASHTEST_MODE=ok "$melody" sweep --no-cache crashtest \
    >"$dir/clean" 2>"$dir/err" || { why="clean run failed"; fail; }
cmp -s "$dir/clean" "$dir/rerun" ||
    { why="rerun bytes differ from an uncached render"; fail; }
exit 0
