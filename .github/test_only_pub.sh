#!/bin/sh
# Public surface that only tests call.
#
# Scans the non-test code of crates/*/src, src, examples and benchmark/src:
# each file up to its `#[cfg(test)] mod ... {`, without files that are
# `#[cfg(test)] mod x;` modules, the other items that carry `#[cfg(test)]`,
# whole-line comments, trailing ` //` comments and `use` declarations (a
# `use a as b` counts every `b` as an `a`). A `pub fn` or `pub const` whose
# name appears there only in its own definition has no non-test caller. A
# field is not a call: `.name` with no `(` or `::` after it, and `name:`
# (a field's declaration or initialiser), are not counted. A local binding
# is not a call either: the name after `let` or `let mut`, and a line that
# is one lower-case name and a comma (a struct-init shorthand written one
# field a line), are not counted. The scan is by name, so a collision can
# only hide one.
#
#   sh .github/test_only_pub.sh   # exit 1 on an unlisted name or a stale entry
#
# Each line of .github/test_only_pub.txt is `<name> <reason>`; the reason names
# the integration test that cannot reach `#[cfg(test)]` or the open ROADMAP
# item that will give the name a caller.
set -eu
allow=.github/test_only_pub.txt
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

files=$(find crates/*/src src examples benchmark/src -name '*.rs' | sort)
# Files that are whole `#[cfg(test)] mod x;` modules.
for f in $files; do
  awk -v file="$f" '
    cfg && /^[[:space:]]*(pub(\([a-z]+\))? )?mod [A-Za-z_0-9]+;/ {
      name = $0; sub(/^.*mod /, "", name); sub(/;.*$/, "", name)
      dir = file; sub(/\/[^\/]*$/, "", dir)
      if (file !~ /\/(lib|main|mod)\.rs$/) { dir = file; sub(/\.rs$/, "", dir) }
      print dir "/" name ".rs"; print dir "/" name "/mod.rs"
    }
    { cfg = /^[[:space:]]*#\[cfg\(test\)\]/ }
  ' "$f"
done | sort > "$tmp/testmods"

touch "$tmp/aliases"
for f in $(echo "$files" | comm -23 - "$tmp/testmods"); do
  awk -v file="$f" -v aliases="$tmp/aliases" '
    function braces(s,   t) { t = s; o += gsub(/\{/, "", t); t = s; c += gsub(/\}/, "", t) }
    skip && o == 0 && /^[[:space:]]*mod [A-Za-z_]+ \{/ { exit }
    skip {
      braces($0)
      # The item ends where its braces balance, at the `;` or `,` that ends
      # a brace-less item (a field, variant or match arm), or where a brace
      # closes a scope the item sits in.
      if ((o > 0 && o == c) || (o == 0 && $0 ~ /[;,][[:space:]]*$/) || c > o) skip = 0
      next
    }
    /^[[:space:]]*#\[cfg\(test\)\]/ { skip = 1; o = 0; c = 0; next }
    /^[[:space:]]*(pub(\([a-z]+\))? )?use / { inuse = 1 }
    inuse {
      s = $0
      while (match(s, /[A-Za-z_][A-Za-z0-9_]* as [A-Za-z_][A-Za-z0-9_]*/)) {
        split(substr(s, RSTART, RLENGTH), p, " ")
        print p[1], p[3] >> aliases
        s = substr(s, RSTART + RLENGTH)
      }
      if ($0 ~ /;/) inuse = 0
      next
    }
    /^[[:space:]]*\/\// { next }
    { sub(/[[:space:]]\/\/.*$/, ""); print file ":" NR ":" $0 }
  ' "$f"
done > "$tmp/code"

# Definitions: name and where.
sed -nE 's/^([^:]*:[0-9]+):[[:space:]]*pub (const |unsafe |async )*fn ([A-Za-z_][A-Za-z0-9_]*).*/\3 \1/p;
         s/^([^:]*:[0-9]+):[[:space:]]*pub const ([A-Za-z_][A-Za-z0-9_]*)[[:space:]]*:.*/\2 \1/p' \
  "$tmp/code" | sort > "$tmp/defs"
# Mentions of every name in the code, definitions included; field reads,
# field initialisers, `let` bindings and one-a-line struct-init shorthands
# are dropped first.
cut -d: -f3- "$tmp/code" |
  sed -E 's/\.[a-z_][a-z0-9_]*([^A-Za-z0-9_(:]|$)/\1/g;
          s/(^|[^A-Za-z0-9_:])[a-z_][a-z0-9_]*:([^:]|$)/\1\2/g;
          s/(^|[^A-Za-z0-9_])let (mut )?[a-z_][a-z0-9_]*/\1/g;
          s/^[[:space:]]*[a-z_][a-z0-9_]*,[[:space:]]*$//' |
  grep -oE '[A-Za-z_][A-Za-z0-9_]*' | sort | uniq -c |
  awk '{ print $2, $1 }' > "$tmp/counts"
# A name is test-only when every mention, its aliases' included, is one of
# its definitions.
awk 'FILENAME == ARGV[1] { alias[$2] = $1; next }
     FILENAME == ARGV[2] { n[$1] += $2; if ($1 in alias) n[alias[$1]] += $2; next }
     { d[$1]++; at[$1] = at[$1] " " $2 }
     END { for (k in d) if (n[k] == d[k]) print k at[k] }' \
  "$tmp/aliases" "$tmp/counts" "$tmp/defs" | sort > "$tmp/only"

grep -vE '^[[:space:]]*(#|$)' "$allow" | awk '{ print $1 }' | sort > "$tmp/listed"
status=0
for name in $(cut -d' ' -f1 "$tmp/only" | comm -23 - "$tmp/listed"); do
  echo "$(grep "^$name " "$tmp/only"): public, but only tests call it (delete it, move it under #[cfg(test)] or list it in $allow with its reason)"
  status=1
done
for name in $(cut -d' ' -f1 "$tmp/only" | comm -13 - "$tmp/listed"); do
  if grep -q "^$name " "$tmp/defs"; then
    echo "$name: listed in $allow, but non-test code calls it now (remove the entry)"
  else
    echo "$name: listed in $allow, but no public definition of it is left (remove the entry)"
  fi
  status=1
done
exit $status
