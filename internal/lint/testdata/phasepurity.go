// Fixture for the phasepurity analyzer.
package fixture

import (
	"repro/internal/message"
	"repro/internal/metrics"
	"repro/internal/router"
	"repro/internal/trace"
)

//simlint:phase compute
func computeBad(p *message.Pool, c *metrics.Collector, r message.Ref) {
	m := p.At(r)               // reading through the pool is fine
	c.Delivered(m, 0)          // want `commit-only \(\*repro/internal/metrics.Collector\).Delivered`
	p.Free(r)                  // want `commit-only \(\*repro/internal/message.Pool\).Free`
	c.Stop(m, metrics.StopVia) // want `commit-only`
}

//simlint:phase compute
func computeTracer(tr trace.Tracer, ev trace.Event) {
	tr.Trace(ev) // want `commit-only \(repro/internal/trace.Tracer\).Trace`
}

//simlint:phase compute
func computeCredit(rt *router.Router, o int) {
	rt.Starve(3, o) // parking is the arbiter's, compute-side
	rt.Credit(o)    // want `commit-only \(\*repro/internal/router.Router\).Credit`
	rt.Resync()     // want `commit-only \(\*repro/internal/router.Router\).Resync`
}

//simlint:phase commit
func commitCredit(rt *router.Router, o int) {
	rt.Credit(o) // phase B applies credits
}

//simlint:phase compute
func computeInLiteral(p *message.Pool, r message.Ref) func() {
	return func() {
		p.Free(r) // want `commit-only`
	}
}

//simlint:phase compute
func computeGood(p *message.Pool, r message.Ref) int {
	return p.At(r).Len
}

//simlint:phase commit
func commitSide(p *message.Pool, r message.Ref) {
	p.Free(r) // commit code may free
}

// Unmarked functions are out of scope: the marker is the contract.
func unmarked(p *message.Pool, r message.Ref) {
	p.Free(r)
}

//simlint:phase compute
func computeSuppressed(p *message.Pool, r message.Ref) {
	p.Free(r) //simlint:ignore phasepurity -- a fixture reason: the caller guards this path
}
