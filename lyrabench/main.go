// Command lyrabench is Lyra's end-to-end benchmark. It runs one of five
// workloads — the paths a user of the compiler runs: a compile, a
// recompile after a switch or a link fault, wire traffic through a
// compiled deployment, tenants of the compile daemon — checks every
// output, and prints the metrics as one JSON object on the last line of
// standard output. From the repository root:
//
//	bash lyrabench/run.sh --workload fabric-compile --seed 1 --seconds 15 --trace 0
//
// --trace 0 measures the end-to-end metrics with no tracing. --trace 1 runs
// the same work through the layers' public functions with a span around
// each call and reports the per-layer metrics instead; the spans and each
// layer's self time are written under <root>/.bench_build/traces. Every run
// also writes a provenance-stamped record (medians, quartiles, sample
// counts, host facts) under <root>/.bench_build/records. --workload all runs
// every workload, each in its own process so memory does not carry over.
//
// NOTES.md records why each workload was chosen and which end-to-end metric
// each per-layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// config is one run's settings. The seed only ever reaches the workload's
// input generators; the program under test sees generated inputs.
type config struct {
	seed   int64
	window time.Duration
	trace  bool
	size   sizes
}

// sizes scales every workload. full is the benchmark; the tests run tiny.
type sizes struct {
	fabricK     int // pods (and pod size) of the multi-pod fat tree
	streamK     int // fat-tree pod size of the streaming deployment
	streamPkts  int // packets per scenario trace
	streamChunk int // packets parsed, fed, flushed and serialized together
	serveK      int // fat-tree pod size of the tenant topology
	simPackets  int // flow-path packets replayed through the simulator
	// Each run sets up at least setupRepeats times and until setupTime has
	// passed (at most maxSetups times); setup_s is the median.
	setupRepeats int
	setupTime    time.Duration
}

const maxSetups = 200

var full = sizes{
	fabricK:      32,
	streamK:      8,
	streamPkts:   8192,
	streamChunk:  1024,
	serveK:       8,
	simPackets:   64,
	setupRepeats: 3,
	setupTime:    2 * time.Second,
}

// workload is one benchmark path. setup builds everything the timed window
// needs; run measures until the window closes and records metrics and
// check outcomes into rep.
type workload struct {
	name  string
	setup func(cfg config, rep *report) (state, error)
}

// state is a set-up workload, ready to measure.
type state interface {
	run(cfg config, rep *report) error
	close()
}

var workloads = []workload{
	{"fabric-compile", setupFabric},
	{"switch-recompile", setupSwitchFault},
	{"link-recompile", setupLinkFault},
	{"wire-stream", setupStream},
	{"serve-tenants", setupServe},
}

func main() {
	name := flag.String("workload", "", "workload name, or all")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 15, "length of the timed window")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	root := flag.String("root", ".", "checkout root; records and traces go under .bench_build")
	flag.Parse()

	cfg := config{seed: *seed, window: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1, size: full}
	if *name == "all" {
		os.Exit(runAll(cfg))
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: lyrabench --workload <%s|all> --seed <n> --seconds <s> --trace <0|1>\n", strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	rep, err := measure(*w, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lyrabench %s: %v\n", w.name, err)
		os.Exit(1)
	}
	out := filepath.Join(*root, ".bench_build")
	if err := rep.write(out, cfg); err != nil {
		fmt.Fprintf(os.Stderr, "lyrabench %s: %v\n", w.name, err)
		os.Exit(1)
	}
	rep.print(os.Stderr)
	line, err := json.Marshal(rep.result(cfg.trace))
	if err != nil {
		fmt.Fprintf(os.Stderr, "lyrabench %s: %v\n", w.name, err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// measure sets the workload up several times (keeping the last), then
// runs the timed window on it.
func measure(w workload, cfg config) (*report, error) {
	rep := newReport(w.name, cfg)
	var st state
	var spent time.Duration
	for i := 0; i < cfg.size.setupRepeats || (spent < cfg.size.setupTime && i < maxSetups); i++ {
		if st != nil {
			st.close()
			st = nil
		}
		runtime.GC()
		start := time.Now()
		s, err := w.setup(cfg, rep)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		took := time.Since(start)
		spent += took
		rep.add("setup_s", "s", took.Seconds())
		st = s
	}
	defer st.close()
	runtime.GC()
	if err := st.run(cfg, rep); err != nil {
		return nil, err
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nil, fmt.Errorf("getrusage: %w", err)
	}
	rep.add("peak_rss_mb", "MB", float64(ru.Maxrss)/1024) // Maxrss is in KiB on Linux
	return rep, nil
}

// runAll runs every workload in a child process of its own and prints each
// one's result line prefixed by its name. It returns the exit code.
func runAll(cfg config) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "lyrabench: %v\n", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		trace := "0"
		if cfg.trace {
			trace = "1"
		}
		args := append([]string{"--workload", w.name, "--seed", fmt.Sprint(cfg.seed),
			"--seconds", fmt.Sprint(cfg.window.Seconds()), "--trace", trace}, rootArgs()...)
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		fmt.Printf("%s %s\n", w.name, lines[len(lines)-1])
		if err != nil {
			fmt.Fprintf(os.Stderr, "lyrabench %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

// rootArgs forwards --root to child processes.
func rootArgs() []string {
	var out []string
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "root" {
			out = []string{"--root", f.Value.String()}
		}
	})
	return out
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
