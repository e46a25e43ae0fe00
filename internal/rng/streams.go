package rng

// Stream-derivation scheme.
//
// Split(label) derives a child from (parent state, label), so two children
// drawn from the SAME parent state collide exactly when their labels are
// equal. Subsystems that hand out many children from one parent therefore
// need label spaces that cannot overlap — a per-router stream and any other
// per-node stream for the same node id must not be the same stream.
//
// The scheme: the top byte of the 64-bit label is a namespace tag owned by
// one subsystem, the low 32 bits carry the entity id (node ids in every
// current namespace), and the middle bytes stay zero for future widening.
// All namespaced labels are >= 1<<56, so they also never collide with the
// small ad-hoc literals used by the run-level splits (traffic = 1,
// engine = 2, faults = 0xfa017), which are drawn from different parent
// states anyway.
//
// Current assignments:
//
//	0x01  per-router VC-selection streams (engine stream → RouterLabel)
//	0x02  unassigned (once reserved for per-source traffic streams; never drawn)
//	0x03  the fault-schedule stream (run stream → ScheduleLabel)
//
// New subsystems take the next free tag; never reuse a retired one, since
// a reused tag silently changes every run's draw sequence.
const (
	nsShift = 56
	// nsRouter tags the engine's per-router VC-selection streams, derived
	// in node-id order from the engine stream at construction.
	nsRouter uint64 = 0x01 << nsShift
	// nsSchedule tags the fault-schedule stream that drives generative
	// MTBF/MTTR fault processes (see internal/fault). One stream per run,
	// entity id 0.
	nsSchedule uint64 = 0x03 << nsShift
)

// RouterLabel returns the Split label of node id's VC-selection stream.
// Panics on negative ids; ids are limited to 32 bits by the scheme.
func RouterLabel(id int) uint64 { return nsRouter | entity(id) }

// ScheduleLabel returns the Split label of the run's fault-schedule
// stream. The engine derives it from the run stream strictly after the
// traffic (1) and engine (2) splits, so adding a schedule leaves those
// streams — and therefore every schedule-free draw — bit-identical.
func ScheduleLabel() uint64 { return nsSchedule }

func entity(id int) uint64 {
	if id < 0 || int64(id) > 0xffffffff {
		panic("rng: stream label entity id out of the 32-bit scheme range")
	}
	return uint64(id)
}
