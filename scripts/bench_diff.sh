#!/usr/bin/env bash
# Diff fadewich-bench JSON result files (BENCH_*.json or ad-hoc
# --bench-out captures): one run per side, or several interleaved runs
# per side.
#
# The bench schema splits every row into two kinds of fields:
#
#   - non-`wall_` fields (tick counts, frame counts, verdict digests,
#     action totals …) are deterministic workload outputs. Two runs of
#     the same configuration must agree exactly; any drift is a
#     correctness regression and fails the diff with exit 1.
#   - `wall_*` fields are host timing and are expected to wobble. A
#     regression of `wall_median_ns_per_unit` on a named row is
#     reported as a warning by default, and only fails the diff when
#     `--fail-on-wall` is given (back-to-back runs on a shared CI box
#     can easily swing more than 10% for innocent reasons). With one
#     run per side a regression is a >10% rise. With several, a row
#     regresses when the median over NEW runs of the per-run medians
#     is >10% above the same median over OLD runs *and* above every
#     OLD run: one run's spread is not a regression.
#
# Usage: bench_diff.sh [--fail-on-wall] [--rows-only] OLD.json NEW.json
#        bench_diff.sh [--fail-on-wall] [--rows-only] OLD.json... -- NEW.json...
#
# Non-wall fields are checked per run: every run on either side must
# agree exactly with the first OLD run. Several runs per side should be
# interleaved (old, new, old, new, ...) so host drift hits both sides.
#
#   --rows-only     only check row-name compatibility: every row named
#                   in OLD must still exist in NEW. Use this against a
#                   committed full-size baseline, whose workload sizes
#                   (and therefore non-wall fields) legitimately differ
#                   from a --quick smoke run.
#   --fail-on-wall  treat wall regressions as fatal too.

set -euo pipefail

usage() {
    echo "usage: bench_diff.sh [--fail-on-wall] [--rows-only] OLD.json NEW.json" >&2
    echo "       bench_diff.sh [--fail-on-wall] [--rows-only] OLD.json... -- NEW.json..." >&2
}

fail_on_wall=0
rows_only=0
while [ $# -gt 0 ]; do
    case "$1" in
    --fail-on-wall) fail_on_wall=1 ;;
    --rows-only) rows_only=1 ;;
    -h | --help)
        usage
        exit 0
        ;;
    --*)
        echo "bench_diff: unknown flag $1" >&2
        usage
        exit 2
        ;;
    *) break ;;
    esac
    shift
done

old_files=()
new_files=()
if [ $# -eq 2 ] && [ "$1" != "--" ] && [ "$2" != "--" ]; then
    old_files=("$1")
    new_files=("$2")
else
    side=old
    for f in "$@"; do
        if [ "$f" = "--" ] && [ "$side" = old ]; then
            side=new
        elif [ "$side" = old ]; then
            old_files+=("$f")
        else
            new_files+=("$f")
        fi
    done
    if [ "$side" != new ] || [ ${#old_files[@]} -eq 0 ] || [ ${#new_files[@]} -eq 0 ]; then
        usage
        exit 2
    fi
fi
for f in "${old_files[@]}" "${new_files[@]}"; do
    if [ ! -f "$f" ]; then
        echo "bench_diff: no such file: $f" >&2
        exit 2
    fi
done

python3 - "$rows_only" "$fail_on_wall" "${old_files[@]}" -- "${new_files[@]}" <<'PY'
import json
import statistics
import sys

rows_only = sys.argv[1] == "1"
fail_on_wall = sys.argv[2] == "1"
split = sys.argv.index("--", 3)
old_paths, new_paths = sys.argv[3:split], sys.argv[split + 1:]

def load(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != "fadewich-bench-v1":
        sys.exit(f"bench_diff: {path}: unexpected schema {doc.get('schema')!r}")
    rows = {}
    for row in doc.get("rows", []):
        name = row.get("name")
        if not isinstance(name, str):
            sys.exit(f"bench_diff: {path}: row without a name: {row!r}")
        if name in rows:
            sys.exit(f"bench_diff: {path}: duplicate row {name!r}")
        rows[name] = row
    return doc, rows

old_runs = [(p, load(p)[1]) for p in old_paths]
new_runs = [(p, load(p)[1]) for p in new_paths]
old_path, old_rows = old_runs[0]
multi = len(old_runs) + len(new_runs) > 2

errors = []
warnings = []

def compare(new_path, new_rows):
    """Row names and non-wall fields of one run against the first OLD run."""
    missing = sorted(set(old_rows) - set(new_rows))
    if missing:
        errors.append(f"rows missing from {new_path}: {', '.join(missing)}")
    added = sorted(set(new_rows) - set(old_rows))
    if added:
        warnings.append(f"new rows not in {old_path}: {', '.join(added)}")
    if rows_only:
        return
    for name in sorted(set(old_rows) & set(new_rows)):
        old_row, new_row = old_rows[name], new_rows[name]
        for key in sorted(set(old_row) | set(new_row)):
            wall = key.startswith("wall_")
            if key not in old_row or key not in new_row:
                where = new_path if key not in new_row else old_path
                msg = f"row {name}: field {key} missing from {where}"
                (warnings if wall else errors).append(msg)
                continue
            if not wall and old_row[key] != new_row[key]:
                run = f" in {new_path}" if multi else ""
                errors.append(
                    f"row {name}: non-wall field {key} drifted{run}: "
                    f"{old_row[key]!r} -> {new_row[key]!r}"
                )

for path, rows in old_runs[1:] + new_runs:
    compare(path, rows)

def wall_ns(runs, name):
    values = [rows[name].get("wall_median_ns_per_unit") for _, rows in runs if name in rows]
    return [v for v in values if isinstance(v, (int, float))]

if not rows_only:
    for name in sorted(old_rows):
        old_ns, new_ns = wall_ns(old_runs, name), wall_ns(new_runs, name)
        if not old_ns or not new_ns:
            continue
        old_med, new_med = statistics.median(old_ns), statistics.median(new_ns)
        if old_med > 0 and new_med > 1.10 * old_med and new_med > max(old_ns):
            spread = ""
            if multi:
                spread = (
                    f", medians of {len(old_ns)} vs {len(new_ns)} runs; "
                    f"old range {min(old_ns):.1f}-{max(old_ns):.1f}"
                )
            warnings.append(
                f"row {name}: wall regression {new_med / old_med:.2f}x "
                f"({old_med:.1f} -> {new_med:.1f} ns/unit{spread})"
            )

for w in dict.fromkeys(warnings):
    print(f"bench_diff: warning: {w}")
for e in dict.fromkeys(errors):
    print(f"bench_diff: error: {e}")

wall_regressions = [w for w in warnings if "wall regression" in w]
if errors or (fail_on_wall and wall_regressions):
    sys.exit(1)
mode = "rows-only" if rows_only else "full"
runs = f" over {len(old_runs)} vs {len(new_runs)} runs" if multi else ""
print(
    f"bench_diff: ok ({mode}): {len(old_rows)} rows compared{runs}, "
    f"{len(wall_regressions)} wall warning(s)"
)
PY
