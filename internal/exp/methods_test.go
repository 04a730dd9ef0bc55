package exp

import (
	"testing"

	"acpsgd/internal/compress"
	"acpsgd/internal/models"
	"acpsgd/internal/sim"
)

// TestConvMethodsResolveInRegistry pins the contract between the experiment
// tables and the compressor registry: every spec the convergence
// experiments train must resolve to a registered factory.
func TestConvMethodsResolveInRegistry(t *testing.T) {
	methods := append(convMethods, fig7Variants...)
	for _, m := range methods {
		spec, err := compress.ParseSpec(m.spec)
		if err != nil {
			t.Fatalf("conv method %q does not parse: %v", m.spec, err)
		}
		if _, _, err := compress.Resolve(spec); err != nil {
			t.Fatalf("conv method %q does not resolve: %v", m.spec, err)
		}
	}
}

// TestSimMethodsResolveInRegistry asserts that every simulatable method
// name is a registered compressor and simulates under its bare spec, so the
// perf tables and the training substrate agree on what each method is.
func TestSimMethodsResolveInRegistry(t *testing.T) {
	for _, name := range sim.Names() {
		if _, err := compress.Lookup(name); err != nil {
			t.Fatalf("simulatable method %q is not a registered compressor: %v", name, err)
		}
		if _, err := runSim(models.ResNet50(), name, 0, nil); err != nil {
			t.Fatalf("simulatable method %q does not simulate: %v", name, err)
		}
	}
}
