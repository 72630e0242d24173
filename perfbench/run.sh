#!/usr/bin/env bash
# Builds the benchmark and the `knw-aggregate` / `knw-worker` binaries from
# the source tree it sits in, then runs one workload:
#
#   bash perfbench/run.sh --workload f0_serve --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root.  Build output goes to $CARGO_TARGET_DIR
# (default perfbench/target); cargo's own messages go to stderr, so the last
# line of stdout is the result object.
set -euo pipefail

here="$(dirname "${BASH_SOURCE[0]}")"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" \
    -p perfbench -p knw-cluster --bins 1>&2
exec "$target/release/perfbench" "$@"
