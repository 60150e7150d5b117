#!/usr/bin/env bash
# The API surface ledger, per crate under crates/, as one command, so a
# privatization PR can quote it before and after:
#
#   1. every `pub mod` declaration in non-test code (the lines before a
#      file's first `#[cfg(test)]`, as code-lines.sh counts them), listed,
#      then counted: a public module is a path callers may name;
#   2. the public item count: unique item pages (`struct.X.html`,
#      `fn.y.html`, ...) linked from rustdoc's `all.html`, deduplicated by
#      file basename so an item re-exported at the root and in a `prelude`
#      counts once.
#
# (2) reads target/doc, so run it after
# `cargo doc --workspace --no-deps --offline`; a crate with no docs prints
# `-`.
#
#   api-surface.sh      no arguments
set -euo pipefail

cd "$(dirname "$0")/../.."
doc=${CARGO_TARGET_DIR:-target}/doc

printf '%7s %7s  %s\n' 'pub mod' items crate
for manifest in crates/*/Cargo.toml; do
  dir=${manifest%/Cargo.toml}
  name=$(awk -F'"' '/^name *=/ { print $2; exit }' "$manifest")
  lib=${name//-/_}
  mods=$(find "$dir/src" -name '*.rs' | sort | while read -r file; do
    awk -v file="$file" '
      /^[[:space:]]*#\[cfg\((all\()?test/ { exit }
      match($0, /^[[:space:]]*pub mod [a-z_0-9]+/) {
        m = substr($0, RSTART, RLENGTH); sub(/.*pub mod /, "", m)
        print file ": " m
      }
    ' "$file"
  done)
  n_mods=$(printf '%s' "$mods" | grep -c . || true)
  items=-
  if [ -f "$doc/$lib/all.html" ]; then
    items=$(grep -oE 'href="[^"#]*/?[a-z]+\.[A-Za-z0-9_]+\.html"' "$doc/$lib/all.html" |
      sed 's/^href="//; s/"$//; s#.*/##' | sort -u | wc -l)
  fi
  printf '%7d %7s  %s\n' "$n_mods" "$items" "$name"
  [ -z "$mods" ] || printf '%s\n' "$mods" | sed 's/^/                   /'
done
