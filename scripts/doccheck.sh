#!/usr/bin/env bash
# doccheck.sh — verify that the repository's markdown docs point at
# things that exist:
#
#   - every relative link names a file or directory in the checkout;
#   - every facade name the docs spell battsched.X (X exported) is a
#     symbol the root package exports, as `go doc -c` resolves it — so
#     a doc still calling a removed or renamed function fails here;
#   - every -flag the docs pass to battload is one `battload -h` lists,
#     so a doc still naming a removed flag fails here. A flag counts
#     when it follows "battload" on the same line, or on a `\`
#     continuation of it, up to the first `|` (a pipe's next command).
#
# Checked files: README.md, ARCHITECTURE.md, and everything under docs/.
# External links (http/https) and pure in-page anchors (#...) are
# skipped; a link's own anchor suffix (FILE.md#section) is stripped
# before the existence check. Run from anywhere; exits non-zero listing
# every broken link and unknown name.
set -u

cd "$(dirname "$0")/.."

files=(README.md ARCHITECTURE.md)
while IFS= read -r f; do
  files+=("$f")
done < <(find docs -name '*.md' 2>/dev/null | sort)

fail=0
for md in "${files[@]}"; do
  [ -f "$md" ] || { echo "doccheck: missing doc file $md"; fail=1; continue; }
  dir=$(dirname "$md")
  # Pull out every ](target) markdown link target.
  while IFS= read -r target; do
    case "$target" in
      http://*|https://*|mailto:*|\#*) continue ;;
    esac
    path="${target%%#*}"            # strip an anchor suffix
    [ -n "$path" ] || continue
    if [ ! -e "$dir/$path" ]; then
      echo "doccheck: $md links to missing file: $target"
      fail=1
    fi
  done < <(grep -o ']([^)]*)' "$md" | sed 's/^](//; s/)$//')
done

# Every battsched.X the docs name, once each, with the files naming it.
names=$(grep -oh 'battsched\.[A-Z][A-Za-z0-9_]*' "${files[@]}" 2>/dev/null | sort -u)
for name in $names; do
  sym=${name#battsched.}
  if ! go doc -c repro "$sym" >/dev/null 2>&1; then
    echo "doccheck: $(grep -l "$name\b" "${files[@]}" 2>/dev/null | tr '\n' ' ')names $name, which the battsched package does not export"
    fail=1
  fi
done

# Every battload -flag the docs name must be one battload defines.
bindir=$(mktemp -d)
trap 'rm -rf "$bindir"' EXIT
if ! go build -o "$bindir/battload" ./cmd/battload; then
  echo "doccheck: cannot build cmd/battload"
  fail=1
fi
known=$("$bindir/battload" -h 2>&1 | sed -n 's/^  -\([a-z0-9-]*\).*/\1/p' | sort -u)
used=$(awk '
  cont || /battload/ {
    s = $0
    if (!cont) s = substr(s, index(s, "battload") + 8)
    piped = index(s, "|")
    if (piped) s = substr(s, 1, piped - 1)
    cont = !piped && s ~ /\\[ \t]*$/
    while (match(s, /(^|[ `(])-[a-z][a-z0-9-]*/)) {
      tok = substr(s, RSTART, RLENGTH)
      sub(/^[ `(]?-/, "", tok)
      print FILENAME ":" tok
      s = substr(s, RSTART + RLENGTH)
    }
    next
  }
  { cont = 0 }' "${files[@]}" | sort -u)
flags=0
for ref in $used; do
  flags=$((flags + 1))
  if ! grep -qx -- "${ref##*:}" <<<"$known"; then
    echo "doccheck: ${ref%%:*} passes battload -${ref##*:}, which battload -h does not list"
    fail=1
  fi
done

if [ "$fail" -ne 0 ]; then
  echo "doccheck: FAILED"
  exit 1
fi
echo "doccheck: all doc links, $(echo "$names" | wc -w) facade names and $flags battload flag uses resolve (${#files[@]} files checked)"
