#!/bin/sh
# Sleep ratchet: fail when the integration tests sleep more. Counts the
# `thread::sleep` occurrences in the `.rs` files under the directories the
# list names (globs allowed) and compares with the ceiling on the list's
# last line.
# Usage: ci/test-sleeps.sh [list]   (default ci/test-sleeps.txt)
list=${1:-ci/test-sleeps.txt}
ceiling=$(grep -v -e '^#' -e '/' "$list" | head -1)
measured=0
for dir in $(grep -v '^#' "$list" | grep '/'); do
    sleeps=$(grep -ro --include='*.rs' 'thread::sleep' "$dir" | wc -l)
    printf '%6d %s\n' "$sleeps" "$dir"
    measured=$((measured + sleeps))
done
echo "$list: $measured thread::sleep calls (ceiling $ceiling)"
[ "$measured" -le "$ceiling" ] || {
    echo "$list: $measured > $ceiling — step the server or wait on the event instead" >&2
    exit 1
}
[ "$measured" -eq "$ceiling" ] || echo "below the ceiling: lower to $measured in $list"
