#!/bin/sh
# Regenerates each golden `bsom-eval` output and diffs it against the
# committed JSON beside this script. Run from the repository root after
# `cargo build --release`; exits 1 if any output moved.
set -eu
eval_bin=${BSOM_EVAL:-target/release/bsom-eval}
status=0
for cmd in table3 table4 fig5 "fig6 --quick" "ablation --quick"; do
    golden="crates/eval/golden/$(echo "$cmd" | sed 's/ --/-/').json"
    # $cmd is split on purpose: a subcommand and its flag.
    if ! $eval_bin $cmd --json | diff -u "$golden" -; then
        echo "bsom-eval $cmd --json differs from $golden" >&2
        status=1
    fi
done
exit $status
