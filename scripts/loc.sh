#!/usr/bin/env bash
# Lines per crate, the ROADMAP's tracked size metric (aim 2: "the same
# behaviour from the least code"):
#
#   scripts/loc.sh [CHECKOUT]
#
# Prints a markdown table of the non-test lines of every crate under
# CHECKOUT/crates (default: this checkout): each `.rs` file counts up to its
# first `#[cfg(test)]` line, comments and blank lines included, so that a
# line moved into a comment or a test is not a line removed. The benchmark
# the driver pins (`crates/bench/src/bin/ledger/`) is listed on its own row
# and kept out of the total a simplification is judged by; so is each
# offline stand-in under `shims/`, one row apiece, so that a stand-in the
# repo stops needing shows as lines gone. The integration tests (`tests/`)
# and each crate's in-file test modules are listed beside them, and under
# the table the five largest files of the total (no file is
# meant to hold a fifth of a crate: ROADMAP, aim 2). `target/` is never read.
# To compare two commits, run it on a checkout of each.
set -euo pipefail

root=$(cd "${1:-$(dirname "$0")/..}" && pwd)
cd "$root"

# Sums "non-test test" line counts over the .rs files given on stdin.
count() {
    xargs -r awk '
        FNR == 1 { in_test = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { in_test = 1 }
        { if (in_test) test += 1; else code += 1 }
        END { print code + 0, test + 0 }'
}

echo "| crate | non-test lines | in-file test lines |"
echo "|---|---:|---:|"
total=0
for crate in crates/*/; do
    name=$(basename "$crate")
    read -r code test < <(find "$crate" -name target -prune -o -name '*.rs' -print |
        grep -v '^crates/bench/src/bin/ledger/' | sort | count)
    echo "| $name | $code | $test |"
    total=$((total + code))
done
echo "| **crates, outside the ledger** | **$total** | |"
read -r code test < <(find crates/bench/src/bin/ledger -name '*.rs' | sort | count)
echo "| crates/bench/src/bin/ledger | $code | $test |"
for shim in shims/*/; do
    read -r code test < <(find "$shim" -name '*.rs' | sort | count)
    echo "| ${shim%/} | $code | $test |"
done
read -r code test < <(find src examples -name '*.rs' | sort | count)
echo "| src + examples | $code | $test |"
echo "| tests/ | $(find tests -name '*.rs' -print0 | xargs -0 cat | wc -l) | |"
echo
echo "Largest files outside the ledger (non-test lines):"
find crates -name target -prune -o -name '*.rs' -print |
    grep -v '^crates/bench/src/bin/ledger/' | sort | while read -r file; do
    read -r code test < <(echo "$file" | count)
    echo "$code $file"
done | sort -rn | sed -n '1,5s/^/- /p'
