package lyra

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"lyra/internal/asic"
	"lyra/internal/topo"
)

// lbSource is the stateful load balancer of the scale experiment; the
// table sizes select how far its connection table shards.
func lbSource(connSize, vipSize int) string {
	return fmt.Sprintf(`
header_type ipv4_t { bit[32] srcAddr; bit[32] dstAddr; bit[8] protocol; }
header ipv4_t ipv4;
header_type tcp_t { bit[16] srcPort; bit[16] dstPort; }
header tcp_t tcp;
pipeline[LB]{loadbalancer};
algorithm loadbalancer {
  extern dict<bit[32] hash, bit[32] ip>[%d] conn_table;
  extern dict<bit[32] vip, bit[32] dip>[%d] vip_table;
  bit[32] hash;
  hash = crc32_hash(ipv4.srcAddr, ipv4.dstAddr, ipv4.protocol, tcp.srcPort, tcp.dstPort);
  if (hash in conn_table) {
    ipv4.dstAddr = conn_table[hash];
  } else {
    if (ipv4.dstAddr in vip_table) {
      ipv4.dstAddr = vip_table[ipv4.dstAddr];
    }
  }
}
`, connSize, vipSize)
}

// fabricScope shards the load balancer over every Agg->ToR path (MULTI-SW).
const fabricScope = `loadbalancer: [ ToR*,Agg* | MULTI-SW | (Agg*->ToR*) ]`

// TestRecompileMatchesOneShotUnderFaults is the incremental contract under
// real faults: recompiling from the pristine result must land exactly on a
// fresh compile of the degraded network — artifacts, shard map,
// fingerprints and admission reports — while reusing every artifact whose
// bytes did not change, and the Delta must reprogram only switches whose
// bytes did change. It covers every single switch-down on the testbed
// (heterogeneous chips, P4 and NPL) and the k=8 fabric; on the k=16 fabric,
// whose pods are isomorphic, every switch of the last pod, a ToR and an
// Agg of the first (a fault there moves the symmetry representative), and
// a core; a seeded sample of link-downs; and chip degrades on the testbed.
func TestRecompileMatchesOneShotUnderFaults(t *testing.T) {
	tofino := func(string, int) *ChipModel { return asic.Tofino32Q }
	cases := []struct {
		name    string
		net     *Network
		src     string
		keep    func(sw string) bool // switch-downs to try
		links   int                  // sampled link-downs
		degrade bool
	}{
		{"testbed", Testbed(), lbSource(2_000_000, 200_000), nil, 4, true},
		{"k8", topo.MultiPodFatTree(8, 8, tofino), lbSource(5_500_000, 1_000_000), nil, 6, false},
		{"k16", topo.MultiPodFatTree(16, 16, tofino), lbSource(5_500_000, 1_000_000), func(sw string) bool {
			return sw == "ToR1_1" || sw == "Agg1_1" || strings.Contains(sw, "16_") || sw == "Core1"
		}, 4, false},
	}
	ctx := context.Background()
	c := New(WithLazyPaths(0))
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			base, err := c.Compile(ctx, tc.src, fabricScope, tc.net)
			if err != nil {
				t.Fatalf("base compile: %v", err)
			}
			if base.ShardMap == "" {
				t.Fatal("base plan shards nothing; the input no longer splits")
			}
			var scenarios []Scenario
			for _, sc := range SingleSwitchFailures(tc.net) {
				if tc.keep == nil || tc.keep(sc.Events[0].Switch) {
					scenarios = append(scenarios, sc)
				}
			}
			links := SingleLinkFailures(tc.net)
			rng := rand.New(rand.NewSource(12))
			rng.Shuffle(len(links), func(i, j int) { links[i], links[j] = links[j], links[i] })
			scenarios = append(scenarios, links[:tc.links]...)
			if tc.degrade {
				for _, sw := range base.PlacedSwitches("loadbalancer") {
					scenarios = append(scenarios, Scenario{Name: "degrade-" + sw, Events: []FaultEvent{Degrade(sw, 0.5, 0.5, 1)}})
				}
			}
			feasible := 0
			for _, sc := range scenarios {
				if checkRecompileExact(t, c, tc.src, base, sc) {
					feasible++
				}
			}
			t.Logf("%d fault scenarios, %d feasible", len(scenarios), feasible)
		})
	}
}

// checkRecompileExact recompiles base under sc and compares the result
// with a one-shot compile of the degraded network. It reports whether the
// degraded network was feasible (both compiles must agree on that).
func checkRecompileExact(t *testing.T, c *Compiler, src string, base *Result, sc Scenario) bool {
	t.Helper()
	ctx := context.Background()
	inc, delta, incErr := c.Recompile(ctx, base, sc)
	degraded := base.Network().Clone()
	if err := sc.Apply(degraded); err != nil {
		t.Fatalf("%s: apply: %v", sc.Name, err)
	}
	one, oneErr := c.Compile(ctx, src, fabricScope, degraded)
	if (incErr == nil) != (oneErr == nil) {
		t.Fatalf("%s: recompile error %v, one-shot error %v", sc.Name, incErr, oneErr)
	}
	if incErr != nil {
		return false
	}
	if got, want := inc.Switches(), one.Switches(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: recompile programs %v, one-shot %v", sc.Name, got, want)
	}
	for _, sw := range one.Switches() {
		a, b := inc.Artifact(sw), one.Artifact(sw)
		if a.Dialect != b.Dialect || a.Code != b.Code || a.ControlPlane != b.ControlPlane {
			t.Errorf("%s: %s artifact differs from one-shot", sc.Name, sw)
		}
	}
	if inc.ShardMap != one.ShardMap {
		t.Errorf("%s: shard map differs from one-shot", sc.Name)
	}
	if !reflect.DeepEqual(inc.Fingerprints, one.Fingerprints) {
		t.Errorf("%s: fingerprints differ from one-shot", sc.Name)
	}
	if !reflect.DeepEqual(inc.Reports, one.Reports) {
		t.Errorf("%s: admission reports differ from one-shot", sc.Name)
	}
	if inc.ArtifactFingerprint() != one.ArtifactFingerprint() {
		t.Errorf("%s: artifact fingerprint differs from one-shot", sc.Name)
	}
	for _, sw := range delta.Reprogram {
		if prev := base.Artifact(sw); prev != nil && prev.Code == inc.Artifact(sw).Code && prev.ControlPlane == inc.Artifact(sw).ControlPlane {
			t.Errorf("%s: Delta reprograms %s but its bytes did not change", sc.Name, sw)
		}
	}
	for _, sw := range delta.Unchanged {
		if base.Artifact(sw) != inc.Artifact(sw) {
			t.Errorf("%s: %s listed unchanged but its artifact was re-emitted", sc.Name, sw)
		}
	}
	return true
}
