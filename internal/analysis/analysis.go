// Package analysis is a self-contained static-analysis framework plus
// the analyzers that enforce this repository's engineering contracts at
// compile time:
//
//   - determinism: simulation and aggregation packages must not consult
//     wall-clock time, the global math/rand source, or range over a
//     built-in map (whose iteration order is randomised per run) where
//     the order can reach results, scheduling, or error selection.
//   - steadystate: functions annotated //patch:steadystate — the
//     MSHR/task/commit hot paths guarded at runtime by AllocsPerRun
//     budgets — must not contain the syntactic allocation sources those
//     budgets exist to catch (capturing closures, fresh-slice appends,
//     map/slice literals, make/new, fmt-family calls).
//   - wirecheck: structs on the JSON wire surface must tag every
//     exported field with an explicit snake_case name, and integer
//     enums crossing the wire must implement MarshalJSON and
//     UnmarshalJSON so the wire form survives constant renumbering.
//   - poolpair: values acquired from the pooled-object seams
//     (msg.Pool.New, FreeList.Get, MSHRs.Acquire) must be released, stored,
//     returned, or handed to a sanctioned sink — never silently
//     dropped.
//
// The API deliberately mirrors golang.org/x/tools/go/analysis
// (Analyzer, Pass, Diagnostic) so the analyzers can be ported to a real
// multichecker verbatim if that dependency ever becomes available; the
// build environment for this repository is hermetic, so packages are
// loaded with `go list -export` and type-checked with the standard
// library alone (see Load).
//
// False positives are suppressed per line with
//
//	//lint:allow <analyzer> <reason>
//
// on the flagged line or the line above it. The reason is mandatory:
// a bare //lint:allow is itself a diagnostic, so every suppression in
// the tree documents why the contract does not apply.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer describes one static-analysis pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in //lint:allow
	// suppressions. It must be a valid identifier.
	Name string

	// Doc is a one-paragraph description of the contract the analyzer
	// enforces.
	Doc string

	// Run applies the analyzer to one package, reporting diagnostics
	// through the pass.
	Run func(*Pass) error
}

// A Pass provides one analyzer with the type-checked syntax of one
// package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Path is the package's import path as the go tool spells it.
	Path string

	unit *Package
	out  *[]Diagnostic
}

// A Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf records a diagnostic at pos. Diagnostics suppressed by a
// well-formed //lint:allow on the same or preceding line are dropped
// here, so analyzers never see suppression mechanics.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.unit != nil && p.unit.suppressed(p.Analyzer.Name, position) {
		return
	}
	*p.out = append(*p.out, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Scope selects the packages (and optionally the files within one
// package) that an analyzer's contract applies to.
type Scope struct {
	// Paths are import-path patterns: an exact path, or a prefix
	// pattern ending in "/..." matching the prefix and everything
	// below it.
	Paths []string

	// Files, when non-empty, restricts a matched package to the named
	// file basenames (e.g. only sweep.go of the root package carries
	// the determinism contract).
	Files map[string][]string // pattern -> basenames
}

// matchPath reports whether path matches pattern (exact, or
// "prefix/..." subtree).
func matchPath(pattern, path string) bool {
	if prefix, ok := strings.CutSuffix(pattern, "/..."); ok {
		return path == prefix || strings.HasPrefix(path, prefix+"/")
	}
	return pattern == path
}

// Match reports whether the scope covers the package, and if so which
// file basenames it is limited to (nil = all files).
func (s Scope) Match(path string) (bool, []string) {
	for _, pat := range s.Paths {
		if matchPath(pat, path) {
			if s.Files != nil {
				if only, ok := s.Files[pat]; ok {
					return true, only
				}
			}
			return true, nil
		}
	}
	return false, nil
}

// fileBase returns the basename of the file containing pos.
func fileBase(fset *token.FileSet, pos token.Pos) string {
	name := fset.Position(pos).Filename
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	return name
}

// inFiles reports whether pos falls in one of the named basenames;
// a nil list admits every file.
func inFiles(fset *token.FileSet, pos token.Pos, only []string) bool {
	if only == nil {
		return true
	}
	base := fileBase(fset, pos)
	for _, f := range only {
		if f == base {
			return true
		}
	}
	return false
}

// FuncRef names a function or method for seam/sink matching: the
// defining package's import path, the receiver's named-type name (""
// for package-level functions, "*" for any receiver in the package),
// and the function name.
type FuncRef struct {
	Pkg  string
	Recv string
	Name string
}

// calleeOf resolves the *types.Func a call expression invokes (through
// method values and generic instantiations), or nil for builtins,
// conversions and indirect calls.
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.IndexExpr: // explicit instantiation f[T](...)
		if base, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			id = base
		}
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	if fn == nil {
		return nil
	}
	return fn.Origin()
}

// matches reports whether fn is the function the ref names.
func (r FuncRef) matches(fn *types.Func) bool {
	if fn == nil || fn.Name() != r.Name {
		return false
	}
	if fn.Pkg() == nil || fn.Pkg().Path() != r.Pkg {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	recv := sig.Recv()
	if r.Recv == "" {
		return recv == nil
	}
	if recv == nil {
		return false
	}
	if r.Recv == "*" {
		return true
	}
	return namedTypeName(recv.Type()) == r.Recv
}

// namedTypeName returns the name of the named type under pointers and
// generic instantiation, or "".
func namedTypeName(t types.Type) string {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Named:
			return u.Obj().Name()
		case *types.Alias:
			t = types.Unalias(t)
		default:
			return ""
		}
	}
}
