#!/bin/sh
# Prints the options a dds subcommand accepts, one entry per line with
# its aliases (e.g. "-n, --nodes"), as its --help=plain lists them.
# Usage: options.sh DDS COMMAND
"$1" "$2" --help=plain | awk '
  /^[A-Z]/ { in_options = /OPTIONS/ }
  in_options && /^       -/ {
    n = split($0, parts, ", ")
    line = ""
    for (i = 1; i <= n; i++) {
      match(parts[i], /-+[a-z0-9-]+/)
      line = line (i > 1 ? ", " : "") substr(parts[i], RSTART, RLENGTH)
    }
    print line
  }'
