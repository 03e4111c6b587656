package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef is a metric BENCHMARK.json declares, with its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one, for its own operation: a cold compile
// (fabric-compile), a recompile (switch-recompile, link-recompile), a round
// of wire packets carried bytes in to bytes out (wire-stream) or a tenant
// request (serve-tenants).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"throughput_per_s", "1/s"},
}

// perLayer are the metrics of single layers, reported by the traced run.
// Every traced run reports every one; a layer the workload's operation
// does not reach did no work and reads 0. Layer time is given as its share
// of the traced operation's wall time, so that a layer off the workload's
// path reads a true 0 rather than a timing; each span's absolute self time
// is in the run's trace file.
var perLayer = []metricDef{
	{"frontend.share", "ratio"},
	{"scope.share", "ratio"},
	{"encode.encode_share", "ratio"},
	{"encode.solve_share", "ratio"},
	{"encode.components", "count"},
	{"encode.classes_solved", "count"},
	{"encode.dedup_hit_ratio", "ratio"},
	{"encode.cache_hit_ratio", "ratio"},
	{"encode.vars", "count"},
	{"encode.clauses", "count"},
	{"backend.fingerprint_share", "ratio"},
	{"backend.translate_share", "ratio"},
	{"backend.translate_alloc_mb", "MB"},
	{"backend.switches_emitted", "count"},
	{"backend.dataplane_mb", "MB"},
	{"backend.controlplane_mb", "MB"},
	{"verify.share", "ratio"},
	{"verify.switches", "count"},
	{"core.delta_reprogram", "count"},
	{"core.delta_unchanged", "count"},
	{"core.delta_overreport", "count"},
	{"core.reprogram_frac", "ratio"},
	{"dataplane.parse_share", "ratio"},
	{"dataplane.feed_share", "ratio"},
	{"dataplane.flush_share", "ratio"},
	{"dataplane.serialize_share", "ratio"},
	{"dataplane.parse_allocs_per_pkt", "count"},
	{"dataplane.serialize_allocs_per_pkt", "count"},
	{"dataplane.allocs_per_pkt", "count"},
	{"dataplane.drains", "count"},
	{"dataplane.lane_imbalance", "ratio"},
	{"dataplane.drop_ratio", "ratio"},
	{"serve.overhead_share", "ratio"},
	{"serve.hit_to_miss_latency", "ratio"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.deduped", "count"},
	{"serve.shed", "count"},
	{"serve.degraded", "count"},
	{"serve.coalesced_events", "count"},
	{"trace.overhead_ratio", "ratio"},
}

// maxFailures bounds the failure messages kept in a record.
const maxFailures = 20

// report accumulates one run: metric samples and check outcomes.
type report struct {
	workload  string
	attempted int
	failed    int
	failures  []string
	metrics   map[string]*metric
	spans     *tracer // non-nil on a traced run
}

// metric is one named series of samples. The reported value is the
// median, or the nearest-rank pct-th percentile when pct is set.
type metric struct {
	unit    string
	pct     float64
	samples []float64
}

func newReport(workload string, cfg config) *report {
	rep := &report{workload: workload, metrics: map[string]*metric{}}
	if cfg.trace {
		rep.spans = newTracer()
	}
	return rep
}

// add records one sample of a metric.
func (r *report) add(name, unit string, v float64) {
	m := r.metrics[name]
	if m == nil {
		m = &metric{unit: unit}
		r.metrics[name] = m
	}
	m.samples = append(m.samples, v)
}

// addPercentile records a metric whose value is the pct-th percentile of
// the given samples.
func (r *report) addPercentile(name, unit string, pct float64, samples []float64) {
	r.metrics[name] = &metric{unit: unit, pct: pct, samples: samples}
}

// addOps records the operation metrics every workload reports: the
// median and 90th percentile of the operations' latencies (ms), and the
// work items completed per second of secs.
func (r *report) addOps(lat []float64, items, secs float64) {
	r.addPercentile("op_p50_ms", "ms", 50, lat)
	r.addPercentile("op_p90_ms", "ms", 90, lat)
	r.add("throughput_per_s", "1/s", items/secs)
}

// addShare records part/whole as a share of an operation's time.
func (r *report) addShare(name string, part, whole time.Duration) {
	r.add(name, "ratio", float64(part)/float64(max(whole, 1)))
}

// check counts one attempted operation, failed unless ok holds.
func (r *report) check(ok bool, format string, args ...any) bool {
	r.attempted++
	if !ok {
		r.failed++
		if len(r.failures) < maxFailures {
			r.failures = append(r.failures, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

// summary is a metric's reported value and the distribution of its
// samples.
type summary struct {
	Unit   string  `json:"unit"`
	Value  float64 `json:"value"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	// Samples are kept in the record file only.
	Samples []float64 `json:"samples,omitempty"`
}

func (m *metric) summary() summary {
	q1, med, q3 := quartiles(m.samples)
	v := med
	if m.pct > 0 {
		v = percentile(m.samples, m.pct)
	}
	return summary{Unit: m.unit, Value: finite(v), Median: finite(med), Q1: finite(q1), Q3: finite(q3), N: len(m.samples)}
}

// quartiles returns the three cut points of sorted samples the way
// Python's statistics.quantiles(data, n=4) computes them (the "exclusive"
// method). One sample is its own quartiles.
func quartiles(samples []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		const n = 4
		m := len(s) + 1
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return cut(1), median(s), cut(3)
}

// median of samples (the mean of the middle two for an even count).
func median(samples []float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100).
func percentile(samples []float64, p float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// resultValue is one metric on the result line.
type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

func (r *report) result(traced bool) result {
	out := result{Correct: r.failed == 0 && r.attempted > 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]resultValue{}}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, d := range defs {
		v := 0.0
		if m := r.metrics[d.name]; m != nil {
			v = m.summary().Value
		}
		out.Metrics[d.name] = resultValue{Value: v, Unit: d.unit}
	}
	return out
}

// finite clamps an infinite latency (a failed request) so it encodes, and
// reads a ratio with nothing to divide (no operation succeeded) as 0.
func finite(v float64) float64 {
	if math.IsInf(v, 1) {
		return math.MaxFloat64
	}
	if math.IsNaN(v) {
		return 0
	}
	return v
}

// provenance identifies what produced a record.
type provenance struct {
	GitSHA     string `json:"git_sha"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Seed       int64  `json:"seed"`
	Window     string `json:"window"`
	Traced     bool   `json:"traced"`
	Timestamp  string `json:"timestamp"`
}

func provenanceFor(root string, cfg config) provenance {
	sha := "unknown (not a git checkout)"
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			sha = strings.TrimSpace(string(out))
		}
	}
	return provenance{
		GitSHA: sha, NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Seed: cfg.seed, Window: cfg.window.String(),
		Traced: cfg.trace, Timestamp: time.Now().UTC().Format(time.RFC3339),
	}
}

// record is the full account of one run, written under .bench_build.
type record struct {
	Workload   string             `json:"workload"`
	Provenance provenance         `json:"provenance"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Failures   []string           `json:"failures,omitempty"`
	Metrics    map[string]summary `json:"metrics"`
}

// write stores the run's record, and on a traced run its spans, under out.
func (r *report) write(out string, cfg config) error {
	rec := record{
		Workload: r.workload, Provenance: provenanceFor(filepath.Dir(out), cfg),
		Attempted: r.attempted, Failed: r.failed, Failures: r.failures,
		Metrics: map[string]summary{},
	}
	for name, m := range r.metrics {
		s := m.summary()
		for _, v := range m.samples {
			s.Samples = append(s.Samples, finite(v))
		}
		rec.Metrics[name] = s
	}
	mode := "e2e"
	if cfg.trace {
		mode = "traced"
	}
	base := fmt.Sprintf("%s-seed%d-%s.json", r.workload, cfg.seed, mode)
	if err := writeJSON(filepath.Join(out, "records", base), rec); err != nil {
		return err
	}
	if r.spans != nil {
		return writeJSON(filepath.Join(out, "traces", base), r.spans.export())
	}
	return nil
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// print renders every recorded metric with its unit, median, quartiles and
// sample count, then the check outcome and, on a traced run, each span
// name's self time.
func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "%-36s %-6s %12s %12s %12s %12s %6s\n", r.workload, "unit", "value", "median", "q1", "q3", "n")
	for _, name := range sortedKeys(r.metrics) {
		s := r.metrics[name].summary()
		fmt.Fprintf(w, "%-36s %-6s %12.6g %12.6g %12.6g %12.6g %6d\n", name, s.Unit, s.Value, s.Median, s.Q1, s.Q3, s.N)
	}
	fmt.Fprintf(w, "operations attempted %d, failed %d\n", r.attempted, r.failed)
	for _, f := range r.failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	if r.spans != nil {
		r.spans.printSelf(w)
	}
}
