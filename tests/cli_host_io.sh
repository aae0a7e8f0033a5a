#!/bin/sh
# Usage: cli_host_io.sh MODE MELODY [ARGS...]
#
# melody against host I/O that really fails:
#
# stdout-full:       `melody ARGS... > /dev/full` exits 1 with
#                    "writing stdout" on stderr and no usage text.
# stats-uncreatable: `melody cache stats --cache-dir F/rc`, where F is
#                    a regular file, prints the DEGRADED line and
#                    creates nothing.
# stats-missing:     `melody cache stats --cache-dir D/a/b/rc`, where
#                    D is a directory, is a healthy cold cache and
#                    creates nothing.
# stats-file:        `melody cache stats --cache-dir F`, where F is a
#                    regular file, prints the DEGRADED line and
#                    leaves F as it was.
# clear-uncreatable: `melody cache clear --cache-dir F/rc`, where F is
#                    a regular file, removes 0 files and leaves F as
#                    it was.
# degraded-sweep:    `melody sweep --cache-dir F/rc fig01 fig16`, where
#                    F is a regular file, exits 0 with stdout
#                    byte-identical to --no-cache, reports the cache
#                    DEGRADED to read-only and leaves no .tmp file.
mode=$1
melody=$2
shift 2
dir=$(mktemp -d) || exit 1
trap 'rm -rf "$dir"' EXIT

fail() {
    echo "$mode: $why"
    cat "$dir/err"
    exit 1
}

case $mode in
stdout-full)
    # A cache dir named in ARGS resolves under the scratch dir.
    (cd "$dir" && "$melody" "$@" >/dev/full 2>"$dir/err")
    rc=$?
    [ "$rc" -eq 1 ] || { why="$*: exit $rc, want 1"; fail; }
    grep -q 'melody: error: writing stdout: ' "$dir/err" ||
        { why="$*: stderr lacks the write error"; fail; }
    if grep -q 'usage:' "$dir/err"; then
        why="$*: usage text on stderr"; fail
    fi
    ;;
stats-uncreatable)
    echo "not a directory" >"$dir/out.txt"
    "$melody" cache stats --cache-dir "$dir/out.txt/rc" \
        >"$dir/stats" 2>"$dir/err" || { why="exit $?"; fail; }
    grep -q 'DEGRADED: directory is not writable' "$dir/stats" ||
        { why="no DEGRADED line"; cat "$dir/stats"; fail; }
    [ -f "$dir/out.txt" ] || { why="out.txt was replaced"; fail; }
    ;;
stats-missing)
    "$melody" cache stats --cache-dir "$dir/a/b/rc" \
        >"$dir/stats" 2>"$dir/err" || { why="exit $?"; fail; }
    if grep -q 'DEGRADED' "$dir/stats"; then
        why="a creatable dir reported DEGRADED"; fail
    fi
    [ ! -e "$dir/a" ] || { why="stats created the cache dir"; fail; }
    grep -q '0 entries' "$dir/stats" ||
        { why="not an empty cache"; cat "$dir/stats"; fail; }
    ;;
stats-file)
    echo "not a directory" >"$dir/f"
    "$melody" cache stats --cache-dir "$dir/f" \
        >"$dir/stats" 2>"$dir/err" || { why="exit $?"; fail; }
    grep -q 'DEGRADED: directory is not writable' "$dir/stats" ||
        { why="no DEGRADED line"; cat "$dir/stats"; fail; }
    [ "$(cat "$dir/f")" = "not a directory" ] ||
        { why="f was changed"; fail; }
    ;;
clear-uncreatable)
    echo "not a directory" >"$dir/f"
    "$melody" cache clear --cache-dir "$dir/f/rc" \
        >"$dir/out" 2>"$dir/err" || { why="exit $?"; fail; }
    grep -q '^removed 0 file(s) from ' "$dir/out" ||
        { why="unexpected output"; cat "$dir/out"; fail; }
    [ "$(cat "$dir/f")" = "not a directory" ] ||
        { why="f was changed"; fail; }
    ;;
degraded-sweep)
    echo "not a directory" >"$dir/f"
    "$melody" sweep --cache-dir "$dir/f/rc" fig01 fig16 \
        >"$dir/out" 2>"$dir/err" || { why="exit $?"; fail; }
    grep -q 'DEGRADED to read-only' "$dir/err" ||
        { why="stderr lacks DEGRADED to read-only"; fail; }
    "$melody" sweep --no-cache fig01 fig16 >"$dir/clean" 2>"$dir/err" ||
        { why="--no-cache run failed"; fail; }
    cmp -s "$dir/clean" "$dir/out" ||
        { why="bytes differ from --no-cache"; fail; }
    [ -z "$(find "$dir" -name '*.tmp')" ] ||
        { why=".tmp left behind"; fail; }
    ;;
*)
    echo "unknown mode $mode"
    exit 1
    ;;
esac
exit 0
