package main

import (
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
	"time"
)

// tiny scales every workload down so the whole suite runs in seconds.
// Pods of k=8 keep every single fault feasible for the fabric program,
// as at full size.
var tiny = sizes{
	fabricK:      8,
	streamK:      4,
	streamPkts:   256,
	streamChunk:  64,
	serveK:       8,
	simPackets:   8,
	setupRepeats: 1,
}

func tinyConfig(trace bool) config {
	return config{seed: 7, window: 300 * time.Millisecond, trace: trace, size: tiny}
}

// layersOf names the layers each workload's operation reaches. Its traced
// run must record every per-layer metric of these layers and none of any
// other layer.
var layersOf = map[string][]string{
	"fabric-compile":   {"frontend", "scope", "encode", "backend", "verify", "trace"},
	"switch-recompile": {"scope", "encode", "backend", "verify", "core", "trace"},
	"link-recompile":   {"scope", "encode", "backend", "verify", "core", "trace"},
	"wire-stream":      {"dataplane", "trace"},
	"serve-tenants":    {"serve", "trace"},
}

// declared reads the metrics BENCHMARK.json declares, in its order.
func declared(t *testing.T) (e2e, layer []metricDef) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("BENCHMARK.json declares workloads %v, the benchmark runs %v", names, workloadNames())
	}
	for _, m := range b.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range b.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	return e2e, layer
}

// The benchmark reports exactly the metrics BENCHMARK.json declares, with
// the same units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	e2e, layer := declared(t)
	if !slices.Equal(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, benchmark %v", e2e, endToEnd)
	}
	if !slices.Equal(layer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, benchmark %v", layer, perLayer)
	}
}

// TestWorkloadsTiny runs every workload at a tiny size, untraced and
// traced, and requires every check to pass, every declared metric on the
// result line, each recorded metric in its declared unit, and the traced
// run to record the metrics of exactly the layers the workload reaches.
func TestWorkloadsTiny(t *testing.T) {
	units := map[string]string{}
	for _, d := range append(slices.Clone(endToEnd), perLayer...) {
		units[d.name] = d.unit
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			rep, err := measure(w, tinyConfig(traced))
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			res := rep.result(traced)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: attempted %d failed %d: %v", w.name, traced, res.Attempted, res.Failed, rep.failures)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics on the result line, want %d", w.name, traced, len(res.Metrics), len(defs))
			}
			for name, m := range rep.metrics {
				if u, ok := units[name]; ok && u != m.unit {
					t.Errorf("%s: metric %s recorded in %q, declared in %q", w.name, name, m.unit, u)
				}
			}
			for _, d := range defs {
				layer, _, _ := strings.Cut(d.name, ".")
				reached := !traced || slices.Contains(layersOf[w.name], layer)
				if _, ok := rep.metrics[d.name]; ok != reached {
					t.Errorf("%s traced=%v: metric %s recorded=%v, want %v", w.name, traced, d.name, ok, reached)
				}
			}
		}
	}
}

// setUp builds one workload's state at the tiny size.
func setUp(t *testing.T, name string, cfg config) (state, *report) {
	t.Helper()
	for _, w := range workloads {
		if w.name == name {
			rep := newReport(name, cfg)
			st, err := w.setup(cfg, rep)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(st.close)
			return st, rep
		}
	}
	t.Fatalf("no workload %s", name)
	return nil, nil
}

// A flipped byte in one serialized packet must fail that packet's check.
func TestCorruptedPacketIsCounted(t *testing.T) {
	cfg := tinyConfig(false)
	st, rep := setUp(t, "wire-stream", cfg)
	s := st.(*streamState).scen[0]
	s.want[3] = append([]byte(nil), s.want[3]...)
	s.want[3][len(s.want[3])-1] ^= 0x01
	if err := st.run(cfg, rep); err != nil {
		t.Fatal(err)
	}
	rounds := len(rep.metrics["op_p50_ms"].samples)
	if rep.failed != rounds || rep.result(false).Correct {
		t.Fatalf("corrupted packet: %d failures over %d rounds, correct=%v", rep.failed, rounds, rep.result(false).Correct)
	}
}

// An altered artifact fingerprint must fail every compile's check.
func TestAlteredFingerprintIsCounted(t *testing.T) {
	cfg := tinyConfig(false)
	st, rep := setUp(t, "fabric-compile", cfg)
	st.(*fabricState).fp = "altered"
	if err := st.run(cfg, rep); err != nil {
		t.Fatal(err)
	}
	compiles := len(rep.metrics["op_p50_ms"].samples)
	if compiles == 0 || rep.failed != compiles || rep.result(false).Correct {
		t.Fatalf("altered fingerprint: %d failures over %d compiles", rep.failed, compiles)
	}
}

// A session that does not return to its base fingerprint after recovery
// must fail the recovery's check.
func TestAlteredBaseFingerprintIsCounted(t *testing.T) {
	cfg := tinyConfig(false)
	st, rep := setUp(t, "serve-tenants", cfg)
	st.(*serveState).tenants[0].baseFP = "altered"
	if err := st.run(cfg, rep); err != nil {
		t.Fatal(err)
	}
	if rep.failed == 0 || rep.result(false).Correct {
		t.Fatalf("altered base fingerprint went unnoticed: attempted %d failed %d", rep.attempted, rep.failed)
	}
}

// quartiles must agree with Python's statistics.quantiles(data, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	// statistics.quantiles([1, 5], n=4) == [0.0, 3.0, 6.0]
	q1, med, q3 = quartiles([]float64{5, 1})
	if q1 != 0 || med != 3 || q3 != 6 {
		t.Fatalf("quartiles = %v %v %v, want 0 3 6", q1, med, q3)
	}
}

// Self time subtracts the union of a span's children.
func TestSelfTime(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Name: "a", Parent: 1, Start: 10, End: 40},
		{ID: 3, Name: "b", Parent: 1, Start: 30, End: 60},
		{ID: 4, Name: "c", Parent: 1, Start: 80, End: 90},
	}
	if got := tr.selfTimes()["root"].SelfMs; got != 40e-6 {
		t.Fatalf("root self time = %v ms, want 40ns", got)
	}
}
