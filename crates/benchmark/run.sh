#!/usr/bin/env bash
# Builds kamel-benchmark from this checkout and runs it with the given
# arguments; the last line of its standard output is the result.
#
# No registry resolves where this runs, so cargo is pointed at the
# stand-ins under shims/ (a directory source) for the workspace's nine
# external crates. CARGO_HOME and every output stay under the target
# directory, and a Cargo.lock this script caused is removed again.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
cd "$root"
if [[ ! -f Cargo.toml || ! -f crates/core/Cargo.toml ]]; then
    echo "run.sh: $root is not a checkout of the repository (no workspace to build)" >&2
    exit 3
fi

target="${CARGO_TARGET_DIR:-target}"
[[ "$target" = /* ]] || target="$root/$target"
export CARGO_TARGET_DIR="$target"
export CARGO_HOME="$target/cargo-home"
mkdir -p "$CARGO_HOME"

had_lock=0
[[ -e Cargo.lock ]] && had_lock=1
cleanup() { [[ $had_lock -eq 1 ]] || rm -f "$root/Cargo.lock"; }
trap cleanup EXIT

cargo build --release --offline --quiet -p kamel-benchmark \
    --config 'source.crates-io.replace-with="kamel-shims"' \
    --config "source.kamel-shims.directory=\"$here/shims\"" >&2

KAMEL_BENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
KAMEL_BENCH_COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
export KAMEL_BENCH_RUSTC KAMEL_BENCH_COMMIT
"$target/release/kamel-benchmark" "$@"
