package lint

import (
	"go/ast"
	"strings"
)

// PhasePurity keeps the engine's two-phase barrier honest. Functions that
// run in the compute phase (phase A: the per-router visits — route, switch,
// inject — taken concurrently across worker domains) are marked
//
//	//simlint:phase compute
//
// and must never call a commit-only API directly: shared-state mutation is
// staged through worker.emit / worker.emitTrace / worker.stageArrival —
// unconditionally, on one domain or on many; the stagers have no apply
// side and carry the marker themselves — and replayed in one order at the
// barrier. A direct call to an applyFx-side API from compute code is a data
// race on that order — exactly the class of bug the phase-barriered engine
// exists to exclude.
//
// The check is per-function and syntactic over resolved callees: every call
// in a marked function's body (function literals included) is matched
// against the commit-only denylist. Transitive helpers the compute phase
// calls should carry the marker themselves.
var PhasePurity = &Analyzer{
	Name: "phasepurity",
	Run:  runPhasePurity,
}

// phaseDirective extracts the phase name from a //simlint:phase directive
// in the doc comment, if any.
func phaseDirective(doc *ast.CommentGroup) (string, *ast.Comment) {
	if doc == nil {
		return "", nil
	}
	for _, c := range doc.List {
		if rest, ok := strings.CutPrefix(c.Text, directivePrefix+"phase"); ok {
			return strings.TrimSpace(rest), c
		}
	}
	return "", nil
}

// commitOnly is the denylist of commit-side APIs, keyed by
// (*types.Func).FullName. Each entry names the sanctioned compute-side
// route in its message.
var commitOnly = map[string]string{
	"(*" + modulePath + "/internal/network.Network).applyFx":       "stage the effect with worker.emit; applyFx is replayed only at commit",
	"(*" + modulePath + "/internal/network.Network).trace":         "stage the event with worker.emitTrace; direct emission bypasses the serial replay order",
	"(*" + modulePath + "/internal/network.Network).stageArrival":  "route transfers through worker.stageArrivalW so they land in the receiver's mailbox",
	"(*" + modulePath + "/internal/network.Network).commitEffects": "the barrier itself; only the step driver may run it",
	"(*" + modulePath + "/internal/network.Network).Enqueue":       "external injection API; compute code must inject via the staged arrival path",
	"(*" + modulePath + "/internal/message.Pool).Free":             "slot recycling must happen in serial commit order (fxDeliver/fxDrop effects)",
	"(*" + modulePath + "/internal/router.Router).Credit":          "stage the credit with worker.returnCredit; applied in phase A it is visible to a router visited later in the same cycle",
	"(*" + modulePath + "/internal/router.Router).Resync":          "waking every credit-parked lane belongs to the serial transition point (applyTransitions)",
	"(*" + modulePath + "/internal/metrics.Collector).Delivered":   "metrics mutate shared counters; emit an fxDeliver effect instead",
	"(*" + modulePath + "/internal/metrics.Collector).Stop":        "metrics mutate shared counters; emit an fxStop effect instead",
	"(*" + modulePath + "/internal/metrics.Collector).Dropped":     "metrics mutate shared counters; emit an fxDrop effect instead",
	"(*" + modulePath + "/internal/metrics.Collector).Reinjected":  "metrics mutate shared counters; stage through the worker effect log",
	"(*" + modulePath + "/internal/metrics.Collector).Lost":        "metrics mutate shared counters; stage through the worker effect log",
	"(" + modulePath + "/internal/trace.Tracer).Trace":             "tracer calls must go through worker.emitTrace to preserve the serial event order",
}

func runPhasePurity(pass *Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			phase, dir := phaseDirective(fn.Doc)
			if dir == nil {
				continue
			}
			switch phase {
			case "compute":
			case "commit":
				continue // commit-side marker is documentation only
			default:
				pass.Reportf(dir.Pos(),
					"unknown //simlint:phase %q: want compute or commit", phase)
				continue
			}
			if fn.Body == nil {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee := funcObj(pass.TypesInfo, call)
				if callee == nil {
					return true
				}
				if why, banned := commitOnly[callee.FullName()]; banned {
					pass.Reportf(call.Pos(),
						"compute-phase function %s calls commit-only %s: %s",
						fn.Name.Name, callee.FullName(), why)
				}
				return true
			})
		}
	}
	return nil
}
