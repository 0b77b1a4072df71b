#!/usr/bin/env bash
# Counts the lines every diet PR quotes: per `.rs` file, the lines before its
# `#[cfg(test)]` test module that are neither blank nor `//` comments (doc
# comments included) and not part of a `#[cfg(test)]` item above it (a
# test-only `use`, function or impl), then the sum per crate.  Test code in
# files of its own is not counted: neither a `tests/` directory nor a file
# whose `mod` is declared under `#[cfg(test)]` (`mod census;` below one).
# Informational — nothing is gated on it; it exists so "N → M lines" is the
# same count for everyone.
#
# Usage:
#   scripts/loc.sh [DIR...]
#
#   DIR  a crate directory (default: every directory under crates/, then
#        src/, the facade and the four service binaries)
set -euo pipefail

cd "$(dirname "$0")/.."

# Prints the lines of a file that count: everything up to the `#[cfg(test)]`
# followed by an inline `mod … {`, minus every other `#[cfg(test)]` item —
# its attributes, then up to its `;` or the brace that closes it (a
# `mod m;` declared there is one such item; `test_only_files` skips `m`).
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
            if (next_line ~ /^[[:space:]]*(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+[[:space:]]*\{/) exit
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

# Prints the files under $1 whose `mod` is declared under `#[cfg(test)]`:
# `mod m;` in `a.rs` is `a/m.rs`, in `lib.rs`, `main.rs` or `mod.rs` it is
# `m.rs` beside it (either may be `m/mod.rs`).
test_only_files() {
    find "$1" -name '*.rs' -not -path '*/target/*' | while IFS= read -r file; do
        case "$file" in
            */lib.rs | */main.rs | */mod.rs) base="$(dirname "$file")" ;;
            *) base="${file%.rs}" ;;
        esac
        awk '
            /^[[:space:]]*#\[cfg\(test\)\]/ { test = 1; next }
            test && match($0, /^[[:space:]]*(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+;/) {
                name = $0
                sub(/^[[:space:]]*(pub(\([a-z]+\))? )?mod /, "", name)
                sub(/;.*/, "", name)
                print name
            }
            { test = 0 }
        ' "$file" | while IFS= read -r name; do
            printf '%s/%s.rs\n%s/%s/mod.rs\n' "$base" "$name" "$base" "$name"
        done
    done
}

[ "$#" -gt 0 ] || set -- crates/*/ src/
for dir in "$@"; do
    dir="${dir%/}"
    total=0
    skip=$(test_only_files "$dir")
    while IFS= read -r file; do
        grep -qxF "$file" <<<"$skip" && continue
        lines=$(count "$file")
        printf '%6d  %s\n' "$lines" "$file"
        total=$((total + lines))
    done < <(find "$dir" -name '*.rs' -not -path '*/target/*' -not -path '*/tests/*' | sort)
    printf '%6d  %s (total)\n' "$total" "$dir"
done
