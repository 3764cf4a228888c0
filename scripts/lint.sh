#!/usr/bin/env bash
# Lint gate: the repo's own invariant analyzers, then the external
# tools when present. finitelint is always built from source — the
# analyzers live in this tree, so the gate and the code move together.
#
# External tools (staticcheck, govulncheck) run only if installed: local
# sandboxes without network skip them, CI installs the pinned versions
# below so upstream changes cannot break the gate silently.
set -euo pipefail
cd "$(dirname "$0")/.."

STATICCHECK_VERSION="${STATICCHECK_VERSION:-2023.1.7}"
GOVULNCHECK_VERSION="${GOVULNCHECK_VERSION:-v1.1.3}"

BIN="$(mktemp -d)"
trap 'rm -rf "$BIN"' EXIT

echo "==> gofmt"
test -z "$(gofmt -l . | grep -v /testdata/)"

echo "==> finitelint (internal/lint analyzers)"
go build -o "$BIN/finitelint" ./cmd/finitelint
go vet -vettool="$BIN/finitelint" ./...

echo "==> go vet (standard analyzers)"
go vet ./...

if [ "${LINT_INSTALL_TOOLS:-0}" = "1" ]; then
  echo "==> installing pinned external tools"
  GOBIN="$BIN" go install "honnef.co/go/tools/cmd/staticcheck@$STATICCHECK_VERSION"
  GOBIN="$BIN" go install "golang.org/x/vuln/cmd/govulncheck@$GOVULNCHECK_VERSION"
  export PATH="$BIN:$PATH"
fi

if command -v staticcheck >/dev/null 2>&1; then
  echo "==> staticcheck"
  staticcheck ./...
else
  echo "==> staticcheck not installed; skipping (set LINT_INSTALL_TOOLS=1 to fetch @$STATICCHECK_VERSION)"
fi

if command -v govulncheck >/dev/null 2>&1; then
  echo "==> govulncheck"
  govulncheck ./...
else
  echo "==> govulncheck not installed; skipping (set LINT_INSTALL_TOOLS=1 to fetch @$GOVULNCHECK_VERSION)"
fi

echo "lint: OK"
