#!/usr/bin/env bash
# doccheck.sh — verify that the repository's markdown docs point at
# things that exist:
#
#   - every relative link names a file or directory in the checkout;
#   - every facade name the docs spell battsched.X (X exported) is a
#     symbol the root package exports, as `go doc -c` resolves it — so
#     a doc still calling a removed or renamed function fails here.
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

if [ "$fail" -ne 0 ]; then
  echo "doccheck: FAILED"
  exit 1
fi
echo "doccheck: all doc links and $(echo "$names" | wc -w) facade names resolve (${#files[@]} files checked)"
