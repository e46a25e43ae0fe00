// Package viz renders 2-D planes of a torus as ASCII grids, primarily to
// reproduce Fig. 1 of the paper (examples of coalesced fault regions) and to
// make fault configurations inspectable from the command line.
package viz

import (
	"fmt"
	"strings"

	"repro/internal/fault"
	"repro/internal/topology"
)

// RenderPlane draws the (dim0, dim1) plane through node 0. Faulty nodes
// print as '#', healthy as '.', with dim0 across and dim1 down (origin
// top-left).
func RenderPlane(fs *fault.Set) string {
	t := fs.Net()
	pl := topology.PlaneOf(t, 0, 0, 1)
	var b strings.Builder
	b.WriteString("    dim0 ->\n")
	for y := 0; y < t.K(); y++ {
		if y == 0 {
			b.WriteString("dim1 ")
		} else {
			b.WriteString("     ")
		}
		for x := 0; x < t.K(); x++ {
			if fs.NodeFaulty(pl.Node(x, y)) {
				b.WriteByte('#')
			} else {
				b.WriteByte('.')
			}
			b.WriteByte(' ')
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// RenderRegions summarises every coalesced region: size, shape class, and
// per-dimension extents.
func RenderRegions(fs *fault.Set) string {
	t := fs.Net()
	regs := fs.Regions()
	if len(regs) == 0 {
		return "no fault regions\n"
	}
	var b strings.Builder
	for i, r := range regs {
		kind := "concave"
		if r.Convex() {
			kind = "convex"
		}
		fmt.Fprintf(&b, "region %d: %d nodes, %s, extents", i, r.Size(), kind)
		for d := 0; d < t.N(); d++ {
			e := r.Extent(d)
			wrap := ""
			if e.Wraps {
				wrap = "w"
			}
			fmt.Fprintf(&b, " d%d:[%d..%d]%s", d, e.Lo, e.Hi, wrap)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
