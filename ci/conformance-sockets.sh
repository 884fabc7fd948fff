#!/bin/sh
# Socket check: the conformance harness runs every server, relay and
# client on the in-memory transport, stepped on a virtual clock. Fails
# when a non-test line of the directory (each file up to its
# `#[cfg(test)]`) names a real socket (`TcpStream`, `TcpListener`,
# `OwnedFd`, their non-blocking `…Nb` wrappers included) or sleeps.
# Usage: ci/conformance-sockets.sh [dir]   (default crates/conformance/src)
dir=${1:-crates/conformance/src}
found=$(find "$dir" -name '*.rs' | sort | while read -r file; do
    awk -v file="$file" '
        /^#\[cfg\(test\)\]/ { exit }
        /TcpStream|TcpListener|OwnedFd|thread::sleep/ { print file ":" FNR ": " $0 }
    ' "$file"
done)
if [ -n "$found" ]; then
    echo "$found"
    echo "$dir: a real socket or a sleep outside the tests — dial through the transport and step the world instead" >&2
    exit 1
fi
echo "$dir: no real socket and no sleep outside the tests"
