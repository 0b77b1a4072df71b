#!/usr/bin/env bash
# Counts the lines every diet PR quotes: per `.rs` file, the lines before its
# `#[cfg(test)]` module that are neither blank nor `//` comments (doc
# comments included), then the sum per crate.  Informational — nothing is
# gated on it; it exists so "N → M lines" is the same count for everyone.
#
# Usage:
#   scripts/loc.sh [DIR...]
#
#   DIR  a crate directory (default: every directory under crates/)
set -euo pipefail

cd "$(dirname "$0")/.."

count() {
    awk '/^#\[cfg\(test\)\]/{exit} {print}' "$1" | grep -v '^\s*//' | grep -vc '^\s*$' || true
}

[ "$#" -gt 0 ] || set -- crates/*/
for dir in "$@"; do
    dir="${dir%/}"
    total=0
    while IFS= read -r file; do
        lines=$(count "$file")
        printf '%6d  %s\n' "$lines" "$file"
        total=$((total + lines))
    done < <(find "$dir" -name '*.rs' -not -path '*/target/*' | sort)
    printf '%6d  %s (total)\n' "$total" "$dir"
done
