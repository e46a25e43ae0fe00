// Fixture package A for the registerinit analyzer.
package fixture

import (
	"repro/internal/fault"
	"repro/internal/registry"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/traffic"
)

func init() {
	// Well-formed: init(), literal name, literal aliases.
	routing.Register(routing.Info{
		Name:        "fx-good",
		Description: "fixture algorithm",
		Aliases:     []string{"fx-alias"},
	}, nil)
	traffic.RegisterPattern(traffic.Info{Name: "fx-pattern"}, nil)
	fault.RegisterSchedule(registry.Info{Name: "fx-schedule"}, nil)
}

var computed = "fx-" + "computed"

func init() {
	routing.Register(routing.Info{Name: computed}, nil) // want `Name must be a string literal`
	routing.Register(routing.Info{
		Name:    "fx-aliased",
		Aliases: []string{"fx-ok-alias", computed}, // want `alias must be a string literal`
	}, nil)
}

func lateRegistration() {
	topology.Register(registry.Info{Name: "fx-late"}, nil) // want `topology registration outside init\(\)`
}

func suppressedLate() {
	topology.Register(registry.Info{Name: "fx-plugin"}, nil) //simlint:ignore registerinit -- test-only registry mutation, unwound by t.Cleanup
}
