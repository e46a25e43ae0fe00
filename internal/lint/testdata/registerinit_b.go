// Fixture package B for the registerinit analyzer: registers a name and an
// alias that package A already claimed, which the cross-package duplicate
// check must reject.
package fixtureb

import (
	"repro/internal/fault"
	"repro/internal/registry"
	"repro/internal/routing"
)

func init() {
	routing.Register(routing.Info{Name: "fx-good"}, nil)  // want `duplicate routing registration "fx-good"`
	routing.Register(routing.Info{Name: "fx-fresh"}, nil) // unique: fine
	routing.Register(routing.Info{
		Name:    "fx-shadow",
		Aliases: []string{"fx-alias"}, // want `duplicate routing registration "fx-alias"`
	}, nil)
	// Seams without extra Info fields spell the shared registry.Info directly.
	fault.RegisterSchedule(registry.Info{Name: "fx-schedule"}, nil) // want `duplicate fault-schedule registration "fx-schedule"`
}
