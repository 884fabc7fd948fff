#!/bin/sh
# Run `cargo test "$@"` and fail when its name filters selected no test:
# cargo exits 0 on an empty selection, so a renamed test would otherwise
# turn a filtered CI step green and empty.
out=$(cargo test "$@" 2>&1)
status=$?
printf '%s\n' "$out"
[ "$status" -eq 0 ] || exit "$status"
passed=$(printf '%s\n' "$out" | awk '/^test result:/ { for (i = 2; i <= NF; i++) if ($i == "passed;") n += $(i - 1) } END { print n + 0 }')
[ "$passed" -gt 0 ] || { echo "run-filtered: 'cargo test $*' selected no test" >&2; exit 1; }
