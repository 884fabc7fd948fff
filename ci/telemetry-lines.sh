#!/bin/sh
# Line ratchet: fail when a file set grows. Sums the non-test lines
# (everything above a file's first `#[cfg(test)]`) of the files the list
# names and compares with the ceiling on the list's last line.
# Usage: ci/telemetry-lines.sh [list]   (default ci/telemetry-lines.txt)
list=${1:-ci/telemetry-lines.txt}
ceiling=$(grep -v -e '^#' -e '/' "$list" | head -1)
measured=0
for file in $(grep -v '^#' "$list" | grep '/'); do
    lines=$(awk '/#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$file")
    printf '%6d %s\n' "$lines" "$file"
    measured=$((measured + lines))
done
echo "$list: $measured non-test lines (ceiling $ceiling)"
[ "$measured" -le "$ceiling" ] || {
    echo "$list: $measured > $ceiling — what grew, and what did it make unnecessary?" >&2
    exit 1
}
[ "$measured" -eq "$ceiling" ] || echo "below the ceiling: lower $list to $measured"
