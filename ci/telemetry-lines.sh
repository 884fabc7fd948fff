#!/bin/sh
# Fail when the telemetry file set grows: sum the non-test lines
# (everything above a file's first `#[cfg(test)]`) of the files listed in
# ci/telemetry-lines.txt and compare with the ceiling recorded there.
list=ci/telemetry-lines.txt
ceiling=$(grep -v -e '^#' -e '/' "$list" | head -1)
measured=0
for file in $(grep -v '^#' "$list" | grep '/'); do
    lines=$(awk '/#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$file")
    printf '%6d %s\n' "$lines" "$file"
    measured=$((measured + lines))
done
echo "telemetry file set: $measured non-test lines (ceiling $ceiling)"
[ "$measured" -le "$ceiling" ] || {
    echo "telemetry-lines: $measured > $ceiling — a number is one table row; what else grew?" >&2
    exit 1
}
[ "$measured" -eq "$ceiling" ] || echo "below the ceiling: lower $list to $measured"
