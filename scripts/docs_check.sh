#!/usr/bin/env bash
# docs-check: keep the documentation honest.
#
#   1. Every relative markdown link in README.md and docs/*.md points at a
#      file that exists.
#   2. Every `refrint-cli <subcommand>` the docs mention is a real
#      subcommand (it appears in `refrint-cli help`).
#   3. Every serve endpoint documented in docs/serve.md is routed in
#      crates/serve/src/lib.rs, and vice versa.
#   4. Every `--flag` in the docs/serve.md flag table appears in the CLI
#      usage text.
#   5. Every `--bin`, `--example` and `--bench` target the docs name is a
#      real target of the workspace (per `cargo metadata`).
#
# Usage: scripts/docs_check.sh [path/to/refrint-cli]
# (defaults to target/release/refrint-cli; build it first)

set -euo pipefail
cd "$(dirname "$0")/.."

CLI="${1:-target/release/refrint-cli}"
if [ ! -x "$CLI" ]; then
    echo "docs-check: $CLI not found — run 'cargo build --release -p refrint-cli' first" >&2
    exit 1
fi

fail=0
err() {
    echo "docs-check: FAIL: $*" >&2
    fail=1
}

docs=(README.md docs/*.md)

# --- 1. relative markdown links resolve -------------------------------------
for doc in "${docs[@]}"; do
    dir=$(dirname "$doc")
    # ](target) occurrences; external and pure-anchor links are skipped,
    # in-page anchors on relative links are stripped before the existence test.
    while IFS= read -r link; do
        case "$link" in
        http://* | https://* | mailto:*) continue ;;
        '#'*) continue ;;
        esac
        target="$dir/${link%%#*}"
        [ -e "$target" ] || err "$doc links to missing file: $link"
    done < <(grep -oE '\]\([^)]+\)' "$doc" | sed -e 's/^](//' -e 's/)$//')
done

# --- 2. documented CLI subcommands exist ------------------------------------
help_output=$("$CLI" help)
known_commands=$(printf '%s\n' "$help_output" |
    awk '/^Commands:/{found=1; next} found && /^  [a-z]/ {print $1}' | sort -u)
[ -n "$known_commands" ] || err "could not parse the Commands section of '$CLI help'"

documented_commands=$(grep -ohE 'refrint-cli [a-z][a-z-]*' "${docs[@]}" |
    awk '{print $2}' | grep -v '^help$' | sort -u)
for cmd in $documented_commands; do
    printf '%s\n' "$known_commands" | grep -qx "$cmd" ||
        err "docs mention 'refrint-cli $cmd' but '$CLI help' lists no such subcommand"
done

# Coverage in the other direction: every real subcommand is documented.
for cmd in $known_commands; do
    printf '%s\n' "$documented_commands" | grep -qx "$cmd" ||
        err "subcommand '$cmd' exists but no doc mentions 'refrint-cli $cmd'"
done

# --- 3. documented serve endpoints are routed -------------------------------
routes=crates/serve/src/lib.rs
documented_endpoints=$(grep -ohE '(GET|POST) /[a-z]+' docs/serve.md docs/coordinator.md |
    awk '{print $2}' | sort -u)
[ -n "$documented_endpoints" ] || err "no endpoints found in docs/serve.md"
for ep in $documented_endpoints; do
    grep -qF "\"$ep" "$routes" ||
        err "docs document endpoint $ep but $routes does not route it"
done

# ...and every routed path is documented (the /jobs/ prefix is matched
# dynamically in route(), so it is checked as a prefix).
routed_paths=$({
    grep -oE '"/[a-z]+[/a-z]*" =>' "$routes" | grep -oE '/[a-z]+'
    grep -oE 'starts_with\("/[a-z]+' "$routes" | grep -oE '/[a-z]+'
} | sort -u)
for path in $routed_paths; do
    prefix=$(printf '%s' "$path" | grep -oE '^/[a-z]+')
    printf '%s\n' "$documented_endpoints" | grep -qx "$prefix" ||
        err "$routes routes $path but docs/serve.md does not document it"
done

# --- 4. documented serve flags exist in the usage text ----------------------
documented_flags=$(grep -oE '^\| `--[a-z-]+' docs/serve.md | grep -oE '\-\-[a-z-]+' | sort -u)
[ -n "$documented_flags" ] || err "no flag table found in docs/serve.md"
for flag in $documented_flags; do
    printf '%s\n' "$help_output" | grep -qF -- "$flag" ||
        err "docs/serve.md documents serve flag $flag but '$CLI help' does not mention it"
done

# --- 5. documented build targets exist --------------------------------------
known_targets=$(cargo metadata --no-deps --format-version 1 --offline | python3 -c '
import json, sys
for package in json.load(sys.stdin)["packages"]:
    for target in package["targets"]:
        for kind in target["kind"]:
            print(kind, target["name"])
' | sort -u)
[ -n "$known_targets" ] || err "could not list build targets with 'cargo metadata'"
documented_targets=$(grep -ohE -- '--(bin|example|bench) [A-Za-z0-9_-]+' "${docs[@]}" |
    sed 's/^--//' | sort -u)
while IFS= read -r target; do
    [ -n "$target" ] || continue
    printf '%s\n' "$known_targets" | grep -qxF "$target" ||
        err "docs mention '--$target' but the workspace has no such target"
done <<<"$documented_targets"

if [ "$fail" -ne 0 ]; then
    exit 1
fi
echo "docs-check: OK (${#docs[@]} files, $(printf '%s\n' "$known_commands" | wc -l | tr -d ' ') subcommands, $(printf '%s\n' "$documented_endpoints" | wc -l | tr -d ' ') endpoints)"
