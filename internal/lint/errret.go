package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"finitelb/internal/lint/analysis"
)

// ErrRetAnalyzer (errret) is the cmd/-scoped errcheck: a call whose last
// result is an error, targeting the io/flag/encoding families, used as a
// bare statement silently swallows the error. The binaries are the
// repository's user surface — a sweep or figures run whose CSV write
// failed half-way must exit non-zero, not truncate quietly. Scoped to
// cmd/ because library packages already return errors upward and the
// oracle tests would catch a swallowed one.
//
// An explicit `_ = f()` is visible intent and passes; `defer f.Close()`
// on a read path is conventional and passes (defers are not bare
// statements in this analyzer's sense).
var ErrRetAnalyzer = &analysis.Analyzer{
	Name: "errret",
	Doc:  "cmd/ packages must not discard errors from io/flag/encoding calls",
	Run:  runErrRet,
}

// errRetPkgs are the packages whose error returns must be consumed. The
// encoding/* family is matched by prefix.
var errRetPkgs = map[string]bool{
	"io":    true,
	"bufio": true,
	"flag":  true,
	"os":    true,
}

func errRetPkg(path string) bool {
	return errRetPkgs[path] || strings.HasPrefix(path, "encoding/")
}

func runErrRet(pass *analysis.Pass) error {
	if !isCmd(pass.Path) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			stmt, ok := n.(*ast.ExprStmt)
			if !ok {
				return true
			}
			call, ok := stmt.X.(*ast.CallExpr)
			if !ok {
				return true
			}
			fun := ast.Unparen(call.Fun)
			var obj types.Object
			switch fn := fun.(type) {
			case *ast.Ident:
				obj = pass.TypesInfo.Uses[fn]
			case *ast.SelectorExpr:
				obj = pass.TypesInfo.Uses[fn.Sel]
			}
			if obj == nil || !errRetPkg(pkgPathOf(obj)) {
				return true
			}
			sig, ok := pass.TypesInfo.TypeOf(fun).(*types.Signature)
			if !ok {
				return true
			}
			res := sig.Results()
			if res.Len() == 0 {
				return true
			}
			last := res.At(res.Len() - 1).Type()
			if !isErrorType(last) {
				return true
			}
			pass.Reportf(call.Pos(), "error from %s.%s silently discarded; check it (or assign to _ to show intent)",
				pkgPathOf(obj), obj.Name())
			return true
		})
	}
	return nil
}

func isErrorType(t types.Type) bool {
	n, ok := t.(*types.Named)
	return ok && n.Obj().Pkg() == nil && n.Obj().Name() == "error"
}
