#!/usr/bin/env bash
# The options ledger: every independently settable value a user of the
# library can turn, as one command, so a simplification PR can quote the
# count before and after.
#
#   1. `pub` fields of every `pub struct *Config` / `*Opts` under crates/*/src
#      (each field is one more configuration tests and benchmarks must cover);
#   2. distinct `RAFT_*` environment variables named in a string literal
#      outside crates/bench.
#
# Both look only at non-test code: the lines before a file's first
# `#[cfg(test)]`, `//`-comments skipped (as code-lines.sh counts them).
#
#   options.sh      no arguments
set -euo pipefail

cd "$(dirname "$0")/../.."

# Non-test, non-comment lines of every library source file, as "file:line".
code() {
  find crates/*/src "$@" -name '*.rs' | sort | while read -r file; do
    awk -v file="$file" '
      /^[[:space:]]*#\[cfg\((all\()?test/ { exit }
      /^[[:space:]]*\/\// { next }
      { print file ":" $0 }
    ' "$file"
  done
}

echo "pub fields of *Config / *Opts structs:"
code | awk '
  match($0, /:pub struct [A-Za-z0-9]*(Config|Opts)( |<|\{)/) {
    name = substr($0, RSTART + 12); sub(/[ <{].*/, "", name)
    file = $0; sub(/:.*/, "", file)
    open = 1; n = 0; next
  }
  open && /:\}/ { printf "%7d  %s (%s)\n", n, name, file; total += n; open = 0 }
  open && /:[[:space:]]+pub [a-z_0-9]+:/ { n++ }
  END { printf "%7d  (total)\n\n", total }
'

echo "RAFT_* environment variables (outside crates/bench):"
code -not -path 'crates/bench/*' |
  grep -o '"RAFT_[A-Z0-9_]*"' | tr -d '"' | sort | uniq -c |
  awk '{ printf "%7d  %s\n", $1, $2; n++ } END { printf "%7d  (distinct)\n", n }'
