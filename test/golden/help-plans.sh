#!/bin/sh
# Runs the fault-plan steps that `dds run --help` gives as --nemesis
# examples, joined with ";" into one plan, through a 10-node es run, so
# every example in the help is one the plan parser accepts. Exits with
# the run's own code: 0 or 1 (a verdict), never 124 (a usage error).
# Usage: help-plans.sh DDS
plan=$(sh "$(dirname "$0")/help-option.sh" "$1" run nemesis \
  | tr '\n' ' ' \
  | sed -e 's/.*steps like *//' -e 's/\. Every injected.*//' -e 's/  */ /g' -e 's/, /;/g')
exec "$1" run es --nodes 10 --horizon 220 --nemesis "$plan"
