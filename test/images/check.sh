#!/bin/sh
# On-disk images: `vino seal G -o G.gimg` then `vino verify G.gimg` must
# accept every builtin graft, so an image survives its save and load with
# its signature intact. Then every word of each image is edited in turn
# (its last digit moved by one, so the value changes by exactly one with
# no arithmetic on 63-bit words) and `vino verify` must exit 1 on every
# edit: the signature covers the header, code and relocation words, and
# the loader refuses any stream it would not write back itself, so no
# word is left unchecked. Finally a copy under the previous format's
# magic must be refused as not an image.
#
# Usage: check.sh VINO
vino=$1
d=$(mktemp -d) || exit 1
trap 'rm -rf "$d"' EXIT
for g in readahead evict sched crypt copy httpd; do
  "$vino" seal "$g" -o "$d/$g.gimg" > /dev/null || exit 1
  "$vino" verify "$d/$g.gimg" > /dev/null \
    || { echo "$g: sealed image fails verify"; exit 1; }
  lines=$(wc -l < "$d/$g.gimg")
  k=2
  while [ "$k" -le "$lines" ]; do
    awk -v k="$k" 'NR == k {
        c = substr($0, length($0), 1)
        $0 = substr($0, 1, length($0) - 1) (c == "9" ? "8" : c + 1)
      } 1' "$d/$g.gimg" > "$d/edited.gimg"
    if "$vino" verify "$d/edited.gimg" > /dev/null 2>&1; then
      echo "$g: image with word $((k - 2)) edited verifies"
      exit 1
    fi
    k=$((k + 1))
  done
  sed '1s/.*/VINOIMG3/' "$d/$g.gimg" > "$d/$g-old.gimg"
  if "$vino" verify "$d/$g-old.gimg" 2> "$d/err"; then
    echo "$g: old-format image verifies"
    exit 1
  fi
  grep -q 'not a vino graft image' "$d/err" \
    || { echo "$g: old-format image not refused as such"; exit 1; }
done
