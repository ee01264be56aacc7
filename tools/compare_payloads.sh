#!/bin/sh
# Byte-identity check of compile payloads between two build trees.
#
# Usage: tools/compare_payloads.sh BUILD_A BUILD_B
#
# Runs `paqocc --json --threads 1` from BUILD_A/tools and BUILD_B/tools
# over the 15 Table I benchmarks of e2ebench's spectral-warm workload,
# each under four compiler settings (--m 0, --m tuned, --method accqoc,
# --m tuned --commute), and diffs the payloads. Prints one line per
# differing case and a final summary line; exits 1 on any difference
# or failed compile, 0 when every payload is byte-identical.
#
# Use it to show that a refactor of a compiler pass changed nothing:
# build the parent commit in one tree and the change in another, then
# compare. Checks that run one build against itself cannot show this.
set -eu

if [ $# -ne 2 ]; then
    sed -n '2,15p' "$0" | sed 's/^# \{0,1\}//'
    exit 2
fi

A=$1/tools/paqocc
B=$2/tools/paqocc
for bin in "$A" "$B"; do
    if [ ! -x "$bin" ]; then
        echo "compare_payloads: missing $bin" >&2
        exit 2
    fi
done

BENCHMARKS="mod5d2 rd32 decod24 4gt10 cnt3-5 hwb4 ham7 bv adder qft
qaoa supre simon qpe bb84"

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

cases=0
diffs=0
for bench in $BENCHMARKS; do
    for mode in "--m 0" "--m tuned" "--method accqoc" \
        "--m tuned --commute"; do
        cases=$((cases + 1))
        # shellcheck disable=SC2086 # mode is a list of flags
        if ! "$A" --benchmark "$bench" $mode --json --threads 1 \
            >"$TMP/a" 2>"$TMP/a.err" \
            || ! "$B" --benchmark "$bench" $mode --json --threads 1 \
                >"$TMP/b" 2>"$TMP/b.err"; then
            echo "FAILED: $bench $mode"
            diffs=$((diffs + 1))
        elif ! cmp -s "$TMP/a" "$TMP/b"; then
            echo "DIFFERS: $bench $mode"
            diffs=$((diffs + 1))
        fi
    done
done

echo "compare_payloads: $cases cases, $diffs differences"
[ "$diffs" -eq 0 ]
