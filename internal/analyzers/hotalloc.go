package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analyzers/framework"
)

// HotAlloc turns the bench-time 0-allocs/op gate into a compile-time
// lint: inside functions whose doc comment carries //stcc:hotpath, any
// construct the compiler may lower to a heap allocation is flagged —
// make/new, map and slice literals, pointer-to-struct literals,
// growing append, interface boxing at call sites, closures, fmt calls,
// non-constant string concatenation, and string<->byte/rune-slice
// conversions.
//
// Two audited idioms pass: the retained-capacity self-append
// `x = append(x, ...)` (steady-state zero-alloc once the backing array
// has grown — the same form maporder accepts) and anything inside a
// panic(...) argument (the allocation happens only on the failure
// path). A reviewed site is suppressed with //stcc:hotalloc <why> on
// its line or the line above — e.g. a new source-queue slab when the
// total backlog reaches a new peak.
var HotAlloc = &framework.Analyzer{
	Name: "hotalloc",
	Doc: `flag allocating constructs in //stcc:hotpath functions

Hot-path functions must not allocate in steady state: make/new, map,
slice and &struct literals, growing append, interface boxing, closures,
fmt and string building are flagged. Self-append into a retained
backing array and panic-path arguments are allowed; annotate a reviewed
site with //stcc:hotalloc <justification>.`,
	Run: runHotAlloc,
}

func runHotAlloc(pass *framework.Pass) error {
	for _, f := range pass.Files {
		suppressed := directiveLines(pass.Fset, f, "stcc:hotalloc")
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !docDirective(fd, "stcc:hotpath") {
				continue
			}
			h := &hotChecker{pass: pass, suppressed: suppressed}
			h.markSelfAppends(fd.Body)
			h.check(fd.Body)
		}
	}
	return nil
}

// docDirective reports whether the function's doc comment carries the
// directive.
func docDirective(fd *ast.FuncDecl, directive string) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if strings.HasPrefix(text, directive) {
			return true
		}
	}
	return false
}

type hotChecker struct {
	pass       *framework.Pass
	suppressed map[int]bool
	// okAppend marks append calls in the self-append form
	// x = append(x, ...), which reuses retained capacity in steady
	// state.
	okAppend map[*ast.CallExpr]bool
}

// markSelfAppends records every append whose result is assigned back to
// its first argument (under = or :=).
func (h *hotChecker) markSelfAppends(body *ast.BlockStmt) {
	h.okAppend = map[*ast.CallExpr]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok || !isBuiltin(h.pass.TypesInfo, call.Fun, "append") || len(call.Args) == 0 {
			return true
		}
		if types.ExprString(call.Args[0]) == types.ExprString(as.Lhs[0]) {
			h.okAppend[call] = true
		}
		return true
	})
}

// check walks the body, skipping panic(...) argument subtrees.
func (h *hotChecker) check(n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.CallExpr:
			if isBuiltin(h.pass.TypesInfo, e.Fun, "panic") {
				return false // failure path: allocation is acceptable
			}
			h.checkCall(e)
		case *ast.CompositeLit:
			h.checkCompositeLit(e, false)
			// Inner literals are checked through their parent context.
		case *ast.UnaryExpr:
			if e.Op == token.AND {
				if lit, ok := ast.Unparen(e.X).(*ast.CompositeLit); ok {
					h.checkCompositeLit(lit, true)
				}
			}
		case *ast.FuncLit:
			h.reportf(e.Pos(), "closure literal in hot path; the func value (and captured variables) may heap-allocate — hoist it or pass data explicitly")
			return false
		case *ast.BinaryExpr:
			h.checkConcat(e)
		}
		return true
	})
}

func (h *hotChecker) checkCall(call *ast.CallExpr) {
	info := h.pass.TypesInfo
	switch {
	case isBuiltin(info, call.Fun, "make"):
		h.reportf(call.Pos(), "make in hot path allocates; preallocate in the constructor or reuse retained capacity")
		return
	case isBuiltin(info, call.Fun, "new"):
		h.reportf(call.Pos(), "new in hot path allocates; reuse pooled or arena storage")
		return
	case isBuiltin(info, call.Fun, "append"):
		if !h.okAppend[call] {
			h.reportf(call.Pos(), "append result is not assigned back to its operand; only the self-append form x = append(x, ...) reuses retained capacity in a hot path")
		}
		return
	}
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		h.checkConversion(call, tv.Type)
		return
	}
	if fn := calleeFunc(info, call.Fun); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		h.reportf(call.Pos(), "fmt.%s in hot path allocates (boxing and string building); format off the hot path", fn.Name())
		return
	}
	h.checkBoxing(call)
}

// checkConversion flags string<->[]byte/[]rune conversions, which copy.
func (h *hotChecker) checkConversion(call *ast.CallExpr, target types.Type) {
	if len(call.Args) != 1 {
		return
	}
	argTV, ok := h.pass.TypesInfo.Types[call.Args[0]]
	if !ok {
		return
	}
	ts, as := isStringType(target), isStringType(argTV.Type)
	tb, ab := isByteOrRuneSlice(target), isByteOrRuneSlice(argTV.Type)
	if (ts && ab) || (tb && as) {
		if argTV.Value != nil && ts {
			return // constant input: the compiler can intern the result
		}
		h.reportf(call.Pos(), "string/byte-slice conversion in hot path copies its operand; keep one representation")
	}
}

// checkBoxing flags concrete, non-pointer-shaped arguments passed to
// interface parameters: the conversion stores the value in a freshly
// allocated box (pointer-shaped values and interfaces convert for
// free).
func (h *hotChecker) checkBoxing(call *ast.CallExpr) {
	info := h.pass.TypesInfo
	tv, ok := info.Types[call.Fun]
	if !ok {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	if params.Len() == 0 || call.Ellipsis.IsValid() {
		return
	}
	for i, arg := range call.Args {
		var pt types.Type
		if sig.Variadic() && i >= params.Len()-1 {
			slice, ok := params.At(params.Len() - 1).Type().(*types.Slice)
			if !ok {
				continue
			}
			pt = slice.Elem()
		} else if i < params.Len() {
			pt = params.At(i).Type()
		} else {
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		at, ok := info.Types[arg]
		if !ok || at.IsNil() {
			continue
		}
		if _, argIface := at.Type.Underlying().(*types.Interface); argIface {
			continue
		}
		if pointerShaped(at.Type) {
			continue
		}
		h.reportf(arg.Pos(), "passing %s to an interface parameter boxes it on the heap; pass a pointer-shaped value or avoid the interface in the hot path", at.Type.String())
	}
}

// checkCompositeLit flags map and slice literals (on their plain
// visit, so &map{...} is not reported twice) and struct literals only
// in the address-taken &T{...} form — value struct literals live on the
// stack.
func (h *hotChecker) checkCompositeLit(lit *ast.CompositeLit, addressed bool) {
	tv, ok := h.pass.TypesInfo.Types[lit]
	if !ok {
		return
	}
	switch tv.Type.Underlying().(type) {
	case *types.Map:
		if !addressed {
			h.reportf(lit.Pos(), "map literal in hot path allocates; hoist it to construction time")
		}
	case *types.Slice:
		if !addressed {
			h.reportf(lit.Pos(), "slice literal in hot path allocates its backing array; reuse retained storage")
		}
	case *types.Struct:
		if addressed {
			h.reportf(lit.Pos(), "&%s{...} in hot path heap-allocates the struct; reuse pooled or arena storage", types.ExprString(lit.Type))
		}
	}
}

// checkConcat flags non-constant string concatenation.
func (h *hotChecker) checkConcat(e *ast.BinaryExpr) {
	if e.Op != token.ADD {
		return
	}
	tv, ok := h.pass.TypesInfo.Types[e]
	if !ok || tv.Value != nil || !isStringType(tv.Type) {
		return
	}
	h.reportf(e.Pos(), "string concatenation in hot path allocates the result; build strings off the hot path")
}

func (h *hotChecker) reportf(pos token.Pos, format string, args ...any) {
	line := h.pass.Fset.Position(pos).Line
	if h.suppressed[line] || h.suppressed[line-1] {
		return
	}
	h.pass.Reportf(pos, format, args...)
}

// calleeFunc resolves a call's function expression to the *types.Func
// it invokes, if it statically names one.
func calleeFunc(info *types.Info, fun ast.Expr) *types.Func {
	var id *ast.Ident
	switch e := ast.Unparen(fun).(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// pointerShaped reports whether values of t fit in an interface word
// without boxing: pointers, channels, maps, funcs, unsafe pointers.
func pointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return t.Underlying().(*types.Basic).Kind() == types.UnsafePointer
	}
	return false
}
