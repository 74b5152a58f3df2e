#!/usr/bin/env bash
# Build the benchmark package (and nothing else of the repo's own tools),
# then run it.
#
#   benchmark/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
#       one workload in one process; the last line of standard output is
#       the JSON result.
#   benchmark/run.sh [--seed N] [--seconds S] [--out DIR]
#       every workload, untraced then traced, one process each.
#
# Artefacts go to $CARGO_TARGET_DIR if set, else to <repo>/target/benchmark,
# which the root .gitignore already covers.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$(dirname "$here")/target/benchmark}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="$CARGO_TARGET_DIR/release/skyrise-benchmark"

case " $* " in
*" --workload "* | *" --describe "*)
    exec "$bin" "$@"
    ;;
esac
for workload in $("$bin" --describe | sed -n 's/^    {"name": "\([^"]*\)", "why": .*/\1/p'); do
    "$bin" --workload "$workload" "$@" --trace 0
    "$bin" --workload "$workload" "$@" --trace 1
done
