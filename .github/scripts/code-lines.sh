#!/usr/bin/env bash
# Count non-test code lines: per file and per crate, the lines before the
# first `#[cfg(test)]` / `#[cfg(all(test` that are neither blank nor
# `//`-comments (doc comments included). "Measured as code, not comments"
# as one command, so a line target cannot be met by moving prose around.
#
#   code-lines.sh [<dir>...]      default: every crates/*/src
set -euo pipefail

cd "$(dirname "$0")/../.."
[ $# -gt 0 ] || set -- crates/*/src

for dir in "$@"; do
  find "$dir" -name '*.rs' | sort | while read -r file; do
    awk -v file="$file" '
      /^[[:space:]]*#\[cfg\((all\()?test/ { exit }
      /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
      { n++ }
      END { printf "%7d  %s\n", n, file }
    ' "$file"
  done | awk -v dir="$dir" '{ print; total += $1 } END { printf "%7d  %s (total)\n\n", total, dir }'
done
