#!/usr/bin/env bash
# Fails if a build log holds a compiler warning from the tree's own
# sources: one located under src/, tests/, tools/, bench/ or examples/, or
# one located in a system header but inlined from code there (GCC 12
# reports -Wrestrict that way). Warnings from third-party sources, such as
# googletest's own, pass.
#
# Usage: cmake --build build 2>&1 | tee build.log
#        tools/check_build_warnings.sh build.log
# Exit status: 0 when no such warning appears, 1 otherwise (each is listed).
set -u
log="${1:?usage: tools/check_build_warnings.sh <build-log>}"
root="$(cd "$(dirname "$0")/.." && pwd -P)"
awk -v root="$root/" '
  function in_tree(path) {
    if (index(path, root) == 1) path = substr(path, length(root) + 1)
    return path ~ /^(src|tests|tools|bench|examples)\//
  }
  # "    inlined from ... at <path>:<line>:<col>," names the tree location
  # of a diagnostic reported inside a system header.
  /^ +inlined from / {
    at = $0
    sub(/.* at /, "", at)
    sub(/[,:]$/, "", at)
    if (in_tree(at)) inlined = at
    next
  }
  /: warning: / {
    path = $0
    sub(/:.*/, "", path)
    if (in_tree(path) || inlined != "") {
      print
      if (inlined != "") print "    (inlined from " inlined ")"
      bad = 1
    }
  }
  # Every diagnostic ends its context here, so the next starts afresh.
  /: (warning|error|note): / { inlined = "" }
  END {
    if (!bad) print "no compiler warnings from the tree'"'"'s sources"
    exit bad
  }
' "$log"
