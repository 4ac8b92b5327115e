#!/usr/bin/env bash
# Diff validate-model's outputs against their goldens under tests/data.
#
# Usage: tests/check_validate_goldens.sh COMMAND...
#
# COMMAND is how the CLI is run, with the subcommand appended, for example
#   tests/check_validate_goldens.sh mdiqkd
#   tests/check_validate_goldens.sh taskset -c 0 mdiqkd
#   PYTHONPATH=src tests/check_validate_goldens.sh python -m mdiqkd.cli
# Run from the root of the repository.  Covers the reference configuration
# at 10^5 trials per cell, one chunk each, and at its default 10^7, ten
# chunks each, which checks the counts of every trial at full size; the
# second takes about 6-8 s on a 2-core host.  The counts do not depend on
# the worker count, so run it on all cores and on one.  The first diff that
# differs fails the script.
set -euo pipefail

if [ "$#" -eq 0 ]; then
    echo "usage: $0 COMMAND..." >&2
    exit 2
fi

config=configs/reference.cfg
data=tests/data
scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT

{ cat "$config"; echo "mc_trials = 100000"; } > "$scratch/validate.cfg"
"$@" validate-model --config "$scratch/validate.cfg" | diff - "$data/validate_reference.csv"
"$@" validate-model --config "$config" | diff - "$data/validate_reference_1e7.csv"
echo "validate goldens match: $*"
