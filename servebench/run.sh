#!/usr/bin/env bash
# Builds `slcs` and the benchmark from source, then runs one benchmark
# run. Invoke from the repository root:
#
#   bash servebench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Build output goes to $CARGO_TARGET_DIR (default: target). The last
# line of standard output is the JSON result.
set -euo pipefail

if [[ ! -f Cargo.toml || ! -d crates/cli || ! -f servebench/Cargo.toml ]]; then
    echo "servebench: run from the repository root (needs Cargo.toml, crates/cli, servebench/)" >&2
    exit 2
fi

# Both builds share one target directory, relative to the root.
export CARGO_TARGET_DIR=${CARGO_TARGET_DIR:-target}
target=$CARGO_TARGET_DIR
trace=0
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
    if [[ ${args[i]} == --trace ]]; then trace=${args[i + 1]:-0}; fi
done

# Builds print to stderr only: stdout ends with the result line.
cargo build --release --offline --quiet -p slcs-cli --bin slcs >&2
bins=(--bin servebench)
if [[ $trace == 1 ]]; then bins+=(--bin replay); fi
cargo build --release --offline --quiet --manifest-path servebench/Cargo.toml "${bins[@]}" >&2

exec "$target/release/servebench" --slcs "$target/release/slcs" "$@"
