package lint

import (
	"go/ast"
	"go/types"

	"finitelb/internal/lint/analysis"
)

// DetRandAnalyzer (detrand) forbids the global math/rand and
// math/rand/v2 state in deterministic packages. The simulator's
// bit-identity goldens, the engine's worker-invariant merges, and every
// oracle test assume all randomness flows from internal/frand or from an
// explicitly seeded source threaded as a parameter; one rand.Float64()
// breaks reproducibility silently — results stay plausible, just no
// longer pinned.
//
// Constructors taking an explicit seed or source (New, NewSource,
// NewPCG, NewChaCha8, NewZipf) are allowed: they don't touch global
// state, and the seed's provenance is then visible at the call site.
var DetRandAnalyzer = &analysis.Analyzer{
	Name: "detrand",
	Doc:  "forbid global math/rand state in deterministic packages",
	Run:  runDetRand,
}

// randConstructors are the package-level names of math/rand{,/v2} that
// only build seeded values and never read global generator state.
var randConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewPCG":     true,
	"NewChaCha8": true,
	"NewZipf":    true,
}

func runDetRand(pass *analysis.Pass) error {
	if !isDeterministic(pass.Path) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := pass.TypesInfo.Uses[sel.Sel]
			if obj == nil {
				return true
			}
			path := pkgPathOf(obj)
			if path != "math/rand" && path != "math/rand/v2" {
				return true
			}
			// Only package-level functions and variables carry global
			// state; methods on *rand.Rand ride an explicit value and
			// types are inert.
			switch obj.(type) {
			case *types.Func:
				if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
					return true // method on an explicit value
				}
			case *types.Var:
				// e.g. a package-level Source variable, if one ever appears
			default:
				return true
			}
			if randConstructors[obj.Name()] {
				return true
			}
			pass.Reportf(sel.Pos(),
				"global %s.%s in deterministic package %s; draw from internal/frand or a seeded source passed in",
				path, obj.Name(), normalizePath(pass.Path))
			return true
		})
	}
	return nil
}
