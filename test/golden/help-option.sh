#!/bin/sh
# Prints one option's entry in a dds subcommand's --help=plain: its
# "--NAME=..." line and the doc paragraph under it, as rendered.
# Usage: help-option.sh DDS COMMAND NAME   (NAME without the dashes)
"$1" "$2" --help=plain | awk -v opt="--$3" '
  index($1, opt) == 1 && substr($1, length(opt) + 1, 1) ~ /^[=,]?$/ { on = 1; print; next }
  on && /^ *$/ { exit }
  on { print }'
