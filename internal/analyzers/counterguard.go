package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"

	"repro/internal/analyzers/framework"
)

// CounterGuard protects the router's denormalized hot state: the
// structure-of-arrays occupancy and lane-mask arrays, the node-level
// active bitsets, and the incremental active-set counters the stages
// consult to skip idle routers. All of it summarizes buffer, latch and
// output-VC state that lives elsewhere, so it is consistent only if
// every transition updates it exactly once — the discipline lives in
// the accessor layer in buffer.go (push/pop, setBinding/clearBinding,
// latch.set/clear, node.startSource/endSource, outVC.acquire/release,
// and the arena construction). Any direct mutation elsewhere — a field
// write, a slice-element write, taking an element's address, or a copy
// or clear into the field — is flagged. Reads are free: the stages and
// the invariant checker iterate the arrays constantly. CheckInvariants
// recounts into plain locals and compares whole structs, which never
// touches a guarded selector.
var CounterGuard = &framework.Analyzer{
	Name: "counterguard",
	Doc: `restrict active-set counter and SoA hot-state mutation to the buffer.go accessors

The incremental netCounters sums (fullBuffers, latched, ownedOuts,
occupiedIns, pendingIns, srcActive), the per-lane occupancy array (occ),
the per-node lane masks (occMask, boundMask, headMask, frozenMask,
latchMask, ownedMask) and the one allocation they are windows of
(masks), the active bitsets (actWords) and the DECbit congestion-marking
state (nodeOcc, congWords, congStable) are denormalized views of router
state. They stay consistent only if every state transition updates them
exactly once; that discipline lives in buffer.go, and this analyzer
rejects writes from any other file, including the builtins copy and
clear.`,
	Run: runCounterGuard,
}

// guardedCounters are the field names the analyzer protects.
var guardedCounters = map[string]bool{
	// netCounters fields: the network-wide sums.
	"fullBuffers": true,
	"latched":     true,
	"ownedOuts":   true,
	"occupiedIns": true,
	"pendingIns":  true,
	"srcActive":   true,
	// Structure-of-arrays hot state: per-lane occupancy, per-node lane
	// masks and their backing array, node-level active bitsets.
	"occ":        true,
	"masks":      true,
	"occMask":    true,
	"boundMask":  true,
	"headMask":   true,
	"frozenMask": true,
	"latchMask":  true,
	"ownedMask":  true,
	"actWords":   true,
	// DECbit congestion marking: the per-node buffered-flit fold, the
	// live congestion bitset it drives (hysteresis state), and the
	// cycle-stable snapshot header pushes mark packets against. A
	// controller (or stage) writing any of these directly would desync
	// the fold from the occ array it summarizes or leak intra-cycle
	// marking order into results.
	"nodeOcc":    true,
	"congWords":  true,
	"congStable": true,
}

// counterAccessorFile is the only file allowed to mutate the guarded
// fields.
const counterAccessorFile = "buffer.go"

func runCounterGuard(pass *framework.Pass) error {
	for _, f := range pass.Files {
		name := filepath.Base(pass.Fset.Position(f.Pos()).Filename)
		if name == counterAccessorFile {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range s.Lhs {
					if field, ok := guardedField(pass, lhs); ok {
						pass.Reportf(lhs.Pos(),
							"direct write to active-set counter %s outside %s; use the accessor methods so the counter stays in lockstep with the state it summarizes",
							field, counterAccessorFile)
					}
				}
			case *ast.IncDecStmt:
				if field, ok := guardedField(pass, s.X); ok {
					pass.Reportf(s.X.Pos(),
						"direct write to active-set counter %s outside %s; use the accessor methods so the counter stays in lockstep with the state it summarizes",
						field, counterAccessorFile)
				}
			case *ast.CallExpr:
				// The builtins copy and clear write through their first
				// argument.
				if id, ok := ast.Unparen(s.Fun).(*ast.Ident); ok {
					if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok && (b.Name() == "copy" || b.Name() == "clear") {
						if field, ok := guardedField(pass, s.Args[0]); ok {
							pass.Reportf(s.Args[0].Pos(),
								"%s into active-set counter %s outside %s; use the accessor methods so the counter stays in lockstep with the state it summarizes",
								b.Name(), field, counterAccessorFile)
						}
					}
				}
			case *ast.UnaryExpr:
				if s.Op == token.AND {
					if field, ok := guardedField(pass, s.X); ok {
						pass.Reportf(s.X.Pos(),
							"taking the address of active-set counter %s outside %s defeats the accessor-only rule",
							field, counterAccessorFile)
					}
				}
			}
			return true
		})
	}
	return nil
}

// guardedField reports whether expr selects one of the guarded counter
// fields on a struct defined in the package under analysis, directly or
// through indexing or slicing (f.occ[gid] = ... and copy(f.occ[lo:], ...)
// mutate the guarded array just as much as f.net.latched++ mutates the
// counter).
func guardedField(pass *framework.Pass, expr ast.Expr) (string, bool) {
	e := ast.Unparen(expr)
	for {
		if ix, ok := e.(*ast.IndexExpr); ok {
			e = ast.Unparen(ix.X)
		} else if sl, ok := e.(*ast.SliceExpr); ok {
			e = ast.Unparen(sl.X)
		} else {
			break
		}
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || !guardedCounters[sel.Sel.Name] {
		return "", false
	}
	selection, ok := pass.TypesInfo.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return "", false
	}
	if obj := selection.Obj(); obj.Pkg() == nil || obj.Pkg() != pass.Pkg {
		return "", false
	}
	return sel.Sel.Name, true
}
