#!/usr/bin/env bash
# Counts the lines every diet PR quotes: per `.rs` file, the lines before its
# `#[cfg(test)]` test module that are neither blank nor `//` comments (doc
# comments included) and not part of a `#[cfg(test)]` item above it (a
# test-only `use`, function or impl), then the sum per crate.  Informational
# — nothing is gated on it; it exists so "N → M lines" is the same count for
# everyone.
#
# Usage:
#   scripts/loc.sh [DIR...]
#
#   DIR  a crate directory (default: every directory under crates/)
set -euo pipefail

cd "$(dirname "$0")/.."

# Prints the lines of a file that count: everything up to the `#[cfg(test)]`
# followed by `mod`, minus every other `#[cfg(test)]` item — its attributes,
# then up to its `;` or the brace that closes it.
non_test() {
    awk '
        function skip_line(l,    opens, closes) {
            opens = gsub(/\{/, "{", l)
            closes = gsub(/\}/, "}", l)
            depth += opens - closes
            if (opens > 0) braced = 1
            if ((braced && depth <= 0) || (!braced && l ~ /;[[:space:]]*$/)) skipping = 0
        }
        /^[[:space:]]*#\[cfg\(test\)\]/ {
            if ((getline next_line) <= 0) exit
            if (next_line ~ /^[[:space:]]*(pub(\([a-z]+\))? )?mod /) exit
            skipping = 1; depth = 0; braced = 0
            skip_line(next_line)
            next
        }
        skipping { skip_line($0); next }
        { print }
    ' "$1"
}

count() {
    non_test "$1" | grep -v '^\s*//' | grep -vc '^\s*$' || true
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
