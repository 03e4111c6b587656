package encode

import (
	"testing"

	"lyra/internal/asic"
	"lyra/internal/topo"
)

// TestFingerprintHashesModelResources: asic.Scale names every degrade
// "X[degraded]" whatever its factors, so a fingerprint keyed on the model
// name alone would let an artifact — and its admission report — admitted
// against one budget be reused under another.
func TestFingerprintHashesModelResources(t *testing.T) {
	in := buildInput(t, subst(lbSrc, "1024", "1024"), lbScope, topo.Testbed())
	plan, err := Solve(in, nil)
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	sw := plan.HostsOf("loadbalancer", in.IR.Algorithm("loadbalancer").Instrs[0].ID)[0]
	s := in.Net.Switch(sw)
	orig := s.ASIC
	seen := map[string]string{}
	for _, f := range [][3]float64{{0.5, 1, 1}, {1, 0.5, 1}, {1, 1, 0.5}, {0.5, 0.5, 0.5}} {
		s.ASIC = asic.Scale(orig, f[0], f[1], f[2])
		if s.ASIC.Name != orig.Name+"[degraded]" {
			t.Fatalf("degraded model named %q", s.ASIC.Name)
		}
		fp := plan.SwitchFingerprint(sw)
		if prev, ok := seen[fp]; ok {
			t.Errorf("degrades %v and %s of %s share a fingerprint", f, prev, sw)
		}
		seen[fp] = ""
	}
	s.ASIC = orig
}

// TestFingerprintHashesImports: a switch importing a bridged variable
// hashes the export its read resolves to, so an upstream change that
// leaves the lyra_bridge layout alone (here the exporter's hit flag) still
// invalidates the importer, while switches neither exporting nor importing
// the variable keep their fingerprints.
func TestFingerprintHashesImports(t *testing.T) {
	in := buildInput(t, subst(lbSrc, "4000000", "1000000"), lbScope, topo.Testbed())
	plan, err := Solve(in, nil)
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	before := plan.Fingerprints()
	// Find an importer and the export its read resolves to: the first
	// other switch, in sorted order, exporting the variable.
	ctx := plan.fingerprintCtx()
	var importer, exporter string
	var idx int
	for _, sw := range sortedKeys(ctx.imports) {
		for v := range ctx.imports[sw] {
			for _, ex := range sortedKeys(plan.Bridges) {
				for i, bv := range plan.Bridges[ex] {
					if importer == "" && ex != sw && bv.Var == v {
						importer, exporter, idx = sw, ex, i
					}
				}
			}
		}
	}
	if importer == "" {
		t.Fatal("plan bridges nothing; the test input no longer splits")
	}
	layout := ctx.layoutDigest
	plan.Bridges[exporter][idx].Hit = !plan.Bridges[exporter][idx].Hit
	after := plan.Fingerprints()
	if plan.fingerprintCtx().layoutDigest != layout {
		t.Fatal("hit flag changed the bridge layout digest")
	}
	if after[importer] == before[importer] {
		t.Errorf("importer %s kept its fingerprint after its export %s changed", importer, exporter)
	}
	for sw, fp := range before {
		if sw == exporter || len(ctx.imports[sw]) > 0 {
			continue
		}
		if after[sw] != fp {
			t.Errorf("%s neither imports nor exports %s yet its fingerprint changed", sw, exporter)
		}
	}
}
