#!/bin/sh
# Render every figure that `melody sweep --list` names, each with an
# empty run cache, and check its bytes against results/digests.txt.
#
# Usage: scripts/figure_digests.sh MELODY OUTDIR
#
# OUTDIR receives one <alias>.txt per figure. Exit status 0 means
# every figure has a digest and matches it. Concatenated in list
# order, the files are byte-for-byte `melody sweep --no-cache all`.
set -eu

melody=$1
out=$2
digests=$(cd "$(dirname "$0")/.." && pwd)/results/digests.txt
jobs=$(nproc 2>/dev/null || echo 4)

mkdir -p "$out"
for alias in $("$melody" sweep --list | awk '{print $1}'); do
    if ! grep -q "  $alias\.txt\$" "$digests"; then
        echo "figure_digests: $alias has no line in $digests" >&2
        exit 1
    fi
    "$melody" sweep --no-cache --jobs "$jobs" "$alias" >"$out/$alias.txt"
done
cd "$out"
sha256sum --strict -c "$digests"
