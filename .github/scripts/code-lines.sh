#!/usr/bin/env bash
# Count non-test code lines: per file and per crate, the lines that are
# neither blank nor `//`-comments (doc comments included), up to the first
# inline test module — a `#[cfg(test)]` / `#[cfg(all(test` that precedes
# `mod name {` (other attributes may sit between). The same attribute on
# any other item (a test-only helper, a `thread_local!`) is counted like
# the item and does not end the count. "Measured as code, not comments"
# as one command, so a line target cannot be met by moving prose around.
# A file whose own `mod` declaration sits under `#[cfg(test)]` (a test-only
# module such as `analysis/golden.rs`), and everything beneath it, is test
# code and is skipped; so are the lines of that declaration.
#
#   code-lines.sh [<dir>...]      default: every crates/*/src
set -euo pipefail

cd "$(dirname "$0")/../.."
[ $# -gt 0 ] || set -- crates/*/src

# The files of `$1` declared test-only: for every `#[cfg(test)]` (or
# `#[cfg(all(test`) followed by `mod name;` (other attributes may sit
# between), print the module's path prefix — `dir/name` — where `dir` is
# the declaring file's directory, plus `/stem` unless it is lib.rs, main.rs
# or mod.rs. A file is test-only when it is `prefix.rs` or under `prefix/`.
test_mods() {
  find "$1" -name '*.rs' | sort | while read -r file; do
    awk -v file="$file" '
      BEGIN {
        dir = file; sub(/\/[^\/]*$/, "", dir)
        stem = file; sub(/.*\//, "", stem); sub(/\.rs$/, "", stem)
        if (stem != "lib" && stem != "main" && stem != "mod") dir = dir "/" stem
      }
      /^[[:space:]]*#\[cfg\((all\()?test/ { armed = 1; next }
      armed && /^[[:space:]]*#\[/ { next }
      armed && match($0, /^[[:space:]]*(pub(\([a-z]+\))? )?mod [a-z_0-9]+;/) {
        name = $0; sub(/^[[:space:]]*(pub(\([a-z]+\))? )?mod /, "", name); sub(/;.*/, "", name)
        print dir "/" name
      }
      { armed = 0 }
    ' "$file"
  done
}

for dir in "$@"; do
  skip=$(test_mods "$dir")
  find "$dir" -name '*.rs' | sort | while read -r file; do
    for prefix in $skip; do
      case "$file" in "$prefix.rs" | "$prefix"/*) continue 2 ;; esac
    done
    awk -v file="$file" '
      /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
      # A test attribute and the attributes after it wait for their item.
      /^[[:space:]]*#\[cfg\((all\()?test/ { held = 1; next }
      held && /^[[:space:]]*#\[/ { held++; next }
      held && /^[[:space:]]*(pub(\([a-z]+\))? )?mod [a-z_0-9]+[[:space:]]*\{/ { exit }
      held && /^[[:space:]]*(pub(\([a-z]+\))? )?mod [a-z_0-9]+;/ { held = 0; next }
      { n += held + 1; held = 0 }
      END { printf "%7d  %s\n", n, file }
    ' "$file"
  done | awk -v dir="$dir" '{ print; total += $1 } END { printf "%7d  %s (total)\n\n", total, dir }'
done
