#!/usr/bin/env bash
# Diff the analysis commands' outputs against their goldens under tests/data.
#
# Usage: tests/check_goldens.sh COMMAND...
#
# COMMAND is how the CLI is run, with the subcommand appended, for example
#   tests/check_goldens.sh mdiqkd
#   tests/check_goldens.sh taskset -c 0 mdiqkd
#   PYTHONPATH=src tests/check_goldens.sh python -m mdiqkd.cli
# Run from the root of the repository.  Covers rate, the reference scan and
# its 0:150:1 scan, the optimized scan at 10,25 km, optimize at 10,25 km with
# its eval log, and the eval log of the plateau search at 70 km.  The first
# diff that differs fails the script.
set -euo pipefail

if [ "$#" -eq 0 ]; then
    echo "usage: $0 COMMAND..." >&2
    exit 2
fi

config=configs/reference.cfg
data=tests/data
scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT

"$@" rate --config "$config" | diff - "$data/rate_reference.txt"
"$@" scan --config "$config" | diff - "$data/reference_scan.csv"
"$@" scan --config "$config" --distances 0:150:1 | diff - "$data/reference_scan_0_150.csv"
"$@" scan --config "$config" --distances 10,25 --optimize on | diff - "$data/scan_optimize_reference.csv"
"$@" optimize --config "$config" --distances 10,25 --eval-log "$scratch/optimize_evals.csv" | diff - "$data/optimize_reference.txt"
diff "$scratch/optimize_evals.csv" "$data/optimize_reference_evals.csv"
{ cat "$config"; echo "budget = 160"; echo "restarts = 4"; } > "$scratch/plateau.cfg"
"$@" optimize --config "$scratch/plateau.cfg" --distances 70 --eval-log "$scratch/plateau_evals.csv" > /dev/null
diff "$scratch/plateau_evals.csv" "$data/optimize_plateau_reference_evals.csv"
echo "goldens match: $*"
