package main

import (
	"testing"
)

// TestAssembliesMatchNewSystem runs one small round of each workload
// shape through privapprox.NewSystem and through the hand-wired
// assemblies (in process and deploy, traced and untraced) under one
// seed: every round must pass the checks and fire byte-identical
// windows.
func TestAssembliesMatchNewSystem(t *testing.T) {
	if testing.Short() {
		t.Skip("builds several systems")
	}
	small := spec{name: "small", clients: 40, queries: 1, s: 1, window: 3, slide: 1, epochs: 8, warm: 2}
	multi := spec{name: "small-multi", clients: 30, queries: 3, s: 0.5, window: 2, slide: 2, epochs: 8, warm: 2, multi: true}
	for _, base := range []spec{small, multi} {
		t.Run(base.name, func(t *testing.T) {
			const seed = 42
			ref, queries, err := runSystemRound(base, seed)
			if err != nil {
				t.Fatal(err)
			}
			if err := ref.check(base, queries); err != nil {
				t.Fatalf("NewSystem round: %v", err)
			}
			if len(ref.results) == 0 {
				t.Fatal("no windows fired")
			}
			deploy := base
			deploy.multi, deploy.deploy = true, true
			for _, tc := range []struct {
				name   string
				sp     spec
				traced bool
			}{
				{"in-process traced", base, true},
				{"deploy untraced", deploy, false},
				{"deploy traced", deploy, true},
			} {
				var tr *tracer
				var lay *layerStats
				if tc.traced {
					tr, lay = newTracer(), &layerStats{}
				}
				got, queries, err := runAssemblyRound(tc.sp, seed, t.TempDir(), tr, lay)
				if err != nil {
					t.Fatalf("%s: %v", tc.name, err)
				}
				if err := got.check(tc.sp, queries); err != nil {
					t.Errorf("%s: %v", tc.name, err)
				}
				if got.digest() != ref.digest() {
					t.Errorf("%s: fired windows differ from privapprox.NewSystem", tc.name)
				}
				if tc.traced && len(tr.spans) == 0 {
					t.Errorf("%s: no spans recorded", tc.name)
				}
			}
		})
	}
}
