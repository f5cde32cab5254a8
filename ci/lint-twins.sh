#!/usr/bin/env bash
# Lint twins: proves the clippy configuration still rejects what it exists
# to reject. For each lint family, one bad line goes into a real source file
# inside the lint's scope; `cargo clippy -p <crate> -- -D warnings` must then
# fail and name the expected lint. Every touched file is restored on exit
# (success, failure or interrupt), so the tree is unchanged afterwards.
#
# Usage: ci/lint-twins.sh   (from anywhere inside the repository)
set -euo pipefail
cd "$(dirname "$0")/.."

backup=$(mktemp -d)
touched=()
restore() {
    for f in "${touched[@]}"; do
        cp "$backup/$(basename "$f")" "$f"
    done
    rm -rf "$backup"
}
trap restore EXIT

# The clean crates must pass first, or a failure below would prove nothing.
cargo clippy -q -p stbpu-bpu -p stbpu-sim -p stbpu-engine -p stbpu-serve -- -D warnings

failures=0

# twin CRATE FILE LINT LINE: insert LINE before FILE's first `use` item,
# expect clippy on CRATE to fail naming LINT, then restore FILE.
twin() {
    local crate=$1 file=$2 lint=$3 line=$4 out
    cp "$file" "$backup/$(basename "$file")"
    touched+=("$file")
    awk -v bad="$line" '!done && /^use / { print bad; done = 1 } { print }' \
        "$backup/$(basename "$file")" > "$file"
    if out=$(cargo clippy -q -p "$crate" -- -D warnings 2>&1); then
        echo "lint-twins: FAIL $lint: clippy accepted the bad line in $file"
        failures=$((failures + 1))
    elif ! grep -q "clippy::$lint\|#$lint" <<< "$out"; then
        echo "lint-twins: FAIL $lint: clippy failed on $file without naming the lint:"
        echo "$out"
        failures=$((failures + 1))
    else
        echo "lint-twins: ok   $lint fires in $file"
    fi
    cp "$backup/$(basename "$file")" "$file"
}

twin stbpu-sim crates/sim/src/session.rs disallowed_methods \
    '#[allow(dead_code)] fn lint_twin() -> std::time::Instant { std::time::Instant::now() }'
twin stbpu-engine crates/engine/src/experiment.rs disallowed_types \
    '#[allow(dead_code)] fn lint_twin() -> std::collections::HashMap<u8, u8> { Default::default() }'
twin stbpu-serve crates/serve/src/protocol.rs unwrap_used \
    '#[allow(dead_code)] fn lint_twin(b: &[u8]) -> u8 { *b.first().unwrap() }'
twin stbpu-bpu crates/bpu/src/snap.rs unwrap_used \
    '#[allow(dead_code)] fn lint_twin(b: &[u8]) -> u8 { *b.first().unwrap() }'
twin stbpu-engine crates/engine/src/slice.rs indexing_slicing \
    '#[allow(dead_code)] fn lint_twin(b: &[u8]) -> u8 { b[0] }'

if [ "$failures" -ne 0 ]; then
    echo "lint-twins: $failures lint family(ies) no longer fire"
    exit 1
fi
echo "lint-twins: all lint families fire"
