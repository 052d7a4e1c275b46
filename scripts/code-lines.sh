#!/bin/sh
# Code lines per crate, as ROADMAP.md counts them: non-blank lines that do
# not start with `//`, outside whole `#[cfg(test)] mod` blocks, in
# crates/*/src, leaving out the render crate's two pin tables
# (frame_pins.rs, raster_pins.rs). Prints one row per crate and the total.
#
#   sh scripts/code-lines.sh [repo root, default .]
cd "${1:-.}" || exit 1
for crate in crates/*/; do
    name=$(basename "$crate")
    find "$crate/src" -name '*.rs' ! -name frame_pins.rs ! -name raster_pins.rs |
        sort | xargs awk '
        FNR == 1 { skip = ""; pending = 0 }
        skip != "" { if ($0 == skip) skip = ""; next }
        pending {
            pending = 0
            if ($0 ~ /^[ \t]*(pub(\([a-z]+\))? )?mod [A-Za-z_0-9]+ \{$/) {
                match($0, /^[ \t]*/)
                skip = substr($0, 1, RLENGTH) "}"
                next
            }
            n++
        }
        /^[ \t]*#\[cfg\(test\)\][ \t]*$/ { pending = 1; next }
        /^[ \t]*$/ || /^[ \t]*\/\// { next }
        { n++ }
        END { print n + 0 }' | sed "s|^|$name |"
done | awk '{ print; total += $2 } END { print "total", total }'
