package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"

	"finitelb/internal/lint/analysis"
)

func TestParseAllow(t *testing.T) {
	cases := []struct {
		text         string
		wantAnalyzer string
		wantReason   string
		wantOK       bool
	}{
		{"//lint:allow hotpath cold error exit", "hotpath", "cold error exit", true},
		{"//lint:allow detrand", "detrand", "", true},
		{"//lint:allow", "", "", true},
		{"//lint:allow   walltime   spaced   reason  ", "walltime", "spaced   reason", true},
		{"//lint:allowances are different", "", "", false},
		{"// lint:allow hotpath x", "", "", false}, // directives take no space after //
		{"//finitelb:hotpath", "", "", false},
	}
	for _, c := range cases {
		an, reason, ok := parseAllow(c.text)
		if an != c.wantAnalyzer || reason != c.wantReason || ok != c.wantOK {
			t.Errorf("parseAllow(%q) = %q, %q, %v; want %q, %q, %v",
				c.text, an, reason, ok, c.wantAnalyzer, c.wantReason, c.wantOK)
		}
	}
}

func parseOne(t *testing.T, src string) (*token.FileSet, []*ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	return fset, []*ast.File{f}
}

// posOnLine fabricates a Pos on the given 1-based line of the file.
func posOnLine(fset *token.FileSet, line int) token.Pos {
	var pos token.Pos
	fset.Iterate(func(f *token.File) bool {
		pos = f.LineStart(line)
		return false
	})
	return pos
}

func TestSuppressSameAndPreviousLine(t *testing.T) {
	src := `package p

func a() {
	_ = 1 //lint:allow hotpath same-line reason
	//lint:allow hotpath next-line reason
	_ = 2
	_ = 3
}
`
	fset, files := parseOne(t, src)
	diags := []analysis.Diagnostic{
		{Pos: posOnLine(fset, 4), Message: "on the allow line"},
		{Pos: posOnLine(fset, 6), Message: "below the allow line"},
		{Pos: posOnLine(fset, 7), Message: "unprotected"},
	}
	got := suppress(fset, files, "hotpath", diags)
	if len(got) != 1 || got[0].Message != "unprotected" {
		t.Fatalf("suppress kept %v, want only the unprotected diagnostic", got)
	}
}

func TestSuppressWrongAnalyzerDoesNothing(t *testing.T) {
	src := `package p

func a() {
	_ = 1 //lint:allow detrand reason for another analyzer
}
`
	fset, files := parseOne(t, src)
	diags := []analysis.Diagnostic{{Pos: posOnLine(fset, 4), Message: "hot finding"}}
	got := suppress(fset, files, "hotpath", diags)
	if len(got) != 1 || got[0].Message != "hot finding" {
		t.Fatalf("an allow for another analyzer must not suppress; got %v", got)
	}
}

func TestSuppressEmptyReasonReportsAndKeeps(t *testing.T) {
	src := `package p

func a() {
	_ = 1 //lint:allow hotpath
}
`
	fset, files := parseOne(t, src)
	diags := []analysis.Diagnostic{{Pos: posOnLine(fset, 4), Message: "hot finding"}}
	got := suppress(fset, files, "hotpath", diags)
	if len(got) != 2 {
		t.Fatalf("want original finding plus empty-reason report, got %v", got)
	}
}

func TestSuppressStaleAllowReported(t *testing.T) {
	src := `package p

func a() {
	_ = 1 //lint:allow hotpath stale since the refactor
}
`
	fset, files := parseOne(t, src)
	got := suppress(fset, files, "hotpath", nil)
	if len(got) != 1 {
		t.Fatalf("want one stale-allow report, got %v", got)
	}
}

func TestNormalizePath(t *testing.T) {
	cases := map[string]string{
		"finitelb/internal/sim":                                   "finitelb/internal/sim",
		"finitelb/internal/sim [finitelb/internal/sim.test]":      "finitelb/internal/sim",
		"finitelb/internal/sim_test [finitelb/internal/sim.test]": "finitelb/internal/sim",
		"finitelb/internal/sim.test":                              "finitelb/internal/sim",
	}
	for in, want := range cases {
		if got := normalizePath(in); got != want {
			t.Errorf("normalizePath(%q) = %q, want %q", in, got, want)
		}
	}
	if !isDeterministic("finitelb/internal/sim [finitelb/internal/sim.test]") {
		t.Error("test variant of a deterministic package must stay deterministic")
	}
	if isDeterministic("finitelb/internal/lb") {
		t.Error("internal/lb is live, not deterministic")
	}
	if !isCmd("finitelb/cmd/sweep") || isCmd("finitelb/internal/sim") {
		t.Error("isCmd misclassifies")
	}
}
