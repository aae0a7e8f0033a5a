#!/bin/sh
# Usage: cli_rejects.sh EXPECT MELODY [ARGS...]
#
# Runs MELODY ARGS and passes when the command takes the CLI's
# ConfigError/usage path: exit status 2, EXPECT and the usage text
# on stderr, nothing on stdout (no simulation ran).
expect=$1
melody=$2
shift 2

out=$(mktemp) || exit 1
err=$("$melody" "$@" 2>&1 >"$out")
rc=$?
bytes=$(wc -c <"$out")
rm -f "$out"

fail() {
    echo "melody $*: $why"
    echo "$err"
    exit 1
}
[ "$rc" -eq 2 ] || { why="exit $rc, want 2"; fail "$@"; }
[ "$bytes" -eq 0 ] || { why="$bytes byte(s) on stdout"; fail "$@"; }
case $err in
*"$expect"*) ;;
*) why="stderr lacks '$expect'"; fail "$@" ;;
esac
case $err in
*usage:*) ;;
*) why="stderr lacks the usage text"; fail "$@" ;;
esac
exit 0
