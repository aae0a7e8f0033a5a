#!/bin/sh
# Usage: lint_cli.sh rejects LINT ARGS...
#        lint_cli.sh clean-cwd LINT ROOT
#
# rejects:   LINT ARGS exits 2 with "unknown option" on stderr and
#            nothing on stdout.
# clean-cwd: LINT ROOT, run from a fresh empty directory over an
#            absolute ROOT, finishes a scan (exit 0 or 1) and leaves
#            that directory empty.
mode=$1
lint=$2
shift 2

tmp=$(mktemp -d) || exit 1
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/cwd" || exit 1

fail() {
    echo "melody_lint $*: $why"
    cat "$tmp/err"
    exit 1
}

case $mode in
rejects)
    "$lint" "$@" >"$tmp/out" 2>"$tmp/err"
    rc=$?
    [ "$rc" -eq 2 ] || { why="exit $rc, want 2"; fail "$@"; }
    [ ! -s "$tmp/out" ] || { why="output on stdout"; fail "$@"; }
    grep -q "unknown option" "$tmp/err" ||
        { why="stderr lacks 'unknown option'"; fail "$@"; }
    ;;
clean-cwd)
    (cd "$tmp/cwd" && exec "$lint" "$1") >"$tmp/out" 2>"$tmp/err"
    rc=$?
    [ "$rc" -le 1 ] || { why="exit $rc, want 0 or 1"; fail "$@"; }
    left=$(ls -A "$tmp/cwd")
    [ -z "$left" ] || { why="left behind: $left"; fail "$@"; }
    ;;
*)
    echo "unknown mode $mode"
    exit 1
    ;;
esac
exit 0
