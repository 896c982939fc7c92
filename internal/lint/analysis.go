// Package lint is the project's static-analysis suite: five analyzers
// that machine-enforce the determinism and safety conventions the
// simulation's byte-identical-per-seed contract rests on (map-iteration
// order, wall-clock isolation, single-threaded engine code, event-bus
// ordering and borrowing, float accumulation order).
//
// The framework mirrors the golang.org/x/tools/go/analysis shapes
// (Analyzer, Pass, Diagnostic) so the analyzers port mechanically to a
// real multichecker if that dependency ever becomes vendorable; the
// build environment pins the module to the standard library, so the
// loader (load.go), driver (lint.go) and fixture harness
// (analysistest.go) are self-contained reimplementations of the slices
// of x/tools this suite needs.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer is one named check, the stdlib-only mirror of
// golang.org/x/tools/go/analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in findings and in its suppression
	// annotation: a `//evm:allow-<Name> <reason>` comment on the flagged
	// line (or the line above it) silences the finding. The reason is
	// mandatory — an annotation without one is itself a finding.
	Name string
	// Doc is the one-paragraph contract shown by `evmvet -doc`.
	Doc string
	// Run inspects one type-checked package and reports findings via
	// Pass.Report/Reportf.
	Run func(*Pass) error
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags []Diagnostic
}

// Diagnostic is one finding at one position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Report records a finding.
func (p *Pass) Report(d Diagnostic) { p.diags = append(p.diags, d) }

// Reportf records a finding at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// TypeOf returns the type of expression e, or nil if unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.TypesInfo.TypeOf(e) }

// run executes the analyzer over the package and returns its raw
// diagnostics (suppression annotations are applied by the caller, so
// the fixture harness and the sweep driver share one mechanism).
func (a *Analyzer) run(pkg *Package) ([]Diagnostic, error) {
	pass := &Pass{
		Analyzer:  a,
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.Info,
	}
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %w", a.Name, err)
	}
	return pass.diags, nil
}

// isMap reports whether t's underlying type is a map.
func isMap(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// isFloat reports whether t's underlying type is float32 or float64
// (or an untyped float constant).
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// pkgFunc resolves a selector like time.Now to (package path, func
// name); ok is false when sel is not a package-level function
// reference.
func pkgFunc(info *types.Info, sel *ast.SelectorExpr) (path, name string, ok bool) {
	id, isIdent := sel.X.(*ast.Ident)
	if !isIdent {
		return "", "", false
	}
	pn, isPkg := info.Uses[id].(*types.PkgName)
	if !isPkg {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}

// recvTypeName returns the named-type name of a method call's receiver
// (pointers unwrapped), or "" when the callee is not a method call on a
// named type. Used to recognize event-bus receivers ("Bus" or *Bus).
func recvTypeName(info *types.Info, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	tv, ok := info.Types[sel.X]
	if !ok {
		return ""
	}
	t := tv.Type
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	return named.Obj().Name()
}
