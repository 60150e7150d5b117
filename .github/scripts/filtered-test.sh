#!/usr/bin/env bash
# Run `cargo test <args>` once per name filter and fail if a filter matches
# no test: a renamed module or test must not turn a filtered CI leg into a
# vacuous pass.
#
#   filtered-test.sh <cargo test args...> -- <filter> [<filter>...]
set -euo pipefail

args=()
while [ $# -gt 0 ] && [ "$1" != "--" ]; do
  args+=("$1")
  shift
done
[ $# -ge 2 ] || { echo "usage: $0 <cargo test args...> -- <filter>..." >&2; exit 2; }
shift

for filter in "$@"; do
  out=$(cargo test "${args[@]}" -- "$filter" 2>&1) || { echo "$out"; exit 1; }
  echo "$out"
  if ! grep -Eq '^test result: ok\. [1-9][0-9]* passed' <<<"$out"; then
    echo "error: filter '$filter' matched no tests (cargo test ${args[*]})" >&2
    exit 1
  fi
done
