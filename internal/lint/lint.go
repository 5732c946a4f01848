// Package lint is the repository's static-analysis suite: nine
// analyzers that turn the conventions the model's reproducibility and
// serving path rest on — construction-order float summation, seeded
// entropy, allocation-free hot paths, non-finite-safe JSON, the
// exit-2 convention, pooled-workspace hygiene, sanitized untrusted
// input (taint), cancellation-aware concurrency (ctxflow), and mutex
// discipline (lockcheck) — into build-breaking diagnostics.
// cmd/ffcvet is the driver; docs/ANALYSIS.md describes each rule and
// its rationale.
//
// The first six analyzers are syntactic pattern checks; the last
// three run on an intraprocedural dataflow engine (cfg.go,
// dataflow.go) and exchange cross-package knowledge through
// serialized facts (facts.go) carried over the go vet protocol.
//
// The Analyzer/Pass API deliberately mirrors
// golang.org/x/tools/go/analysis so each analyzer ports to the real
// framework by changing one import. The repository builds with no
// third-party modules (and must keep building offline), so the tiny
// framework below — plus the unitchecker protocol in unitchecker.go —
// stands in for x/tools; docs/ANALYSIS.md records the x/tools version
// the API tracks.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// Analyzer describes one analysis and its entry point, mirroring
// analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and flags.
	Name string
	// Doc is the one-paragraph description printed by ffcvet help.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
	// Facts, if non-nil, computes the fact this analyzer exports for
	// a package from its parsed files alone (no type information —
	// the hook runs in VetxOnly units that never load export data).
	// Returning nil exports nothing.
	Facts func(files []*ast.File) interface{}
}

// Pass carries one package's syntax and type information through an
// Analyzer.Run, mirroring analysis.Pass.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Facts holds the merged fact stores of this package and every
	// package reachable through its imports. May be nil (no facts).
	Facts *FactStore

	diags *[]Diagnostic
}

// Diagnostic is one finding: a position and a message, tagged with the
// analyzer that produced it.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
		Analyzer: p.Analyzer.Name,
	})
}

// IsTestFile reports whether the file containing pos is a _test.go
// file. Several analyzers exempt tests: the determinism and exit
// conventions bind the library and binaries, while tests legitimately
// range over maps, read clocks, and call os.Exit via the harness.
func (p *Pass) IsTestFile(pos token.Pos) bool {
	return strings.HasSuffix(filepath.Base(p.Fset.Position(pos).Filename), "_test.go")
}

// Analyzers returns the full ffcvet suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		DetRange,
		DetSource,
		HotAlloc,
		FiniteJSON,
		CLIExit,
		PoolReturn,
		Taint,
		CtxFlow,
		LockCheck,
	}
}

// modulePath is the import-path prefix of this repository; the
// package-scoped analyzers key their applicability off it.
const modulePath = "github.com/nettheory/feedbackflow"

// detPackages are the deterministic kernels: packages whose outputs
// must be bit-identical run to run, so map-iteration order and global
// entropy/clock sources are forbidden inside them.
var detPackages = map[string]bool{
	modulePath + "/internal/core":      true,
	modulePath + "/internal/queueing":  true,
	modulePath + "/internal/order":     true,
	modulePath + "/internal/eventsim":  true,
	modulePath + "/internal/signal":    true,
	modulePath + "/internal/stability": true,
	modulePath + "/internal/dynamics":  true,
	modulePath + "/internal/fault":     true,
	modulePath + "/internal/fluid":     true,
	modulePath + "/internal/recovery":  true,
	modulePath + "/internal/scenario":  true,
	modulePath + "/internal/runcache":  true,
	modulePath + "/internal/loadgen":   true,
	modulePath + "/internal/cluster":   true,
}

// isDeterministicPkg reports whether path is one of the deterministic
// kernel packages.
func isDeterministicPkg(path string) bool { return detPackages[path] }

// DeterministicPackages returns the sorted deterministic-kernel list.
// The registration-drift test in cmd/ffcvet diffs it against the
// packages that actually declare hot paths or register metrics.
func DeterministicPackages() []string {
	paths := make([]string, 0, len(detPackages))
	for p := range detPackages {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return paths
}

// isCmdPkg reports whether path is one of the repository's binaries.
func isCmdPkg(path string) bool {
	return strings.HasPrefix(path, modulePath+"/cmd/")
}

// CheckPackage type-checks nothing — it runs the given analyzers over
// an already type-checked package and returns their diagnostics sorted
// by position. It is the one entry point shared by the unitchecker
// driver and the linttest fixture harness. facts may be nil when no
// cross-package knowledge is available.
func CheckPackage(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, facts *FactStore, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			Facts:     facts,
			diags:     &diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
	}
	sort.SliceStable(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	return diags, nil
}

// NewTypesInfo returns a types.Info with every map the analyzers need.
func NewTypesInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}

// calleeFunc resolves the called function or method of call, or nil
// for calls through function-typed values and built-ins.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// isPkgFunc reports whether obj is the package-level function
// pkgPath.name (methods never match).
func isPkgFunc(obj *types.Func, pkgPath, name string) bool {
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	sig, _ := obj.Type().(*types.Signature)
	if sig == nil || sig.Recv() != nil {
		return false
	}
	return obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// rootIdent unwraps selectors, indexing, slicing, parens, stars, and
// type assertions down to the base identifier of an expression chain,
// e.g. w.obs.Bottlenecks[i][:0] → w. It returns nil when the chain
// bottoms out in anything else (a call, a literal, ...).
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.TypeAssertExpr:
			e = x.X
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				return nil
			}
			e = x.X
		default:
			return nil
		}
	}
}
