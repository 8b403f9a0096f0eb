#!/usr/bin/env bash
# cargo without a registry: `ci/offline-cargo.sh test -q -p kamel-server`.
# External crates resolve to the stand-ins under crates/benchmark/shims (the
# same two --config flags crates/benchmark/run.sh passes); CARGO_HOME stays
# under the target directory and a Cargo.lock this run caused is removed.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
target="${CARGO_TARGET_DIR:-target}"
[[ "$target" = /* ]] || target="$root/$target"
export CARGO_TARGET_DIR="$target" CARGO_HOME="$target/cargo-home"
mkdir -p "$CARGO_HOME"
[[ -e Cargo.lock ]] || trap 'rm -f "$root/Cargo.lock"' EXIT
cargo "$1" --offline \
    --config 'source.crates-io.replace-with="kamel-shims"' \
    --config "source.kamel-shims.directory=\"$root/crates/benchmark/shims\"" \
    "${@:2}"
