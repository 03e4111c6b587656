package main

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"time"

	"lyra/internal/asic"
	"lyra/internal/dataplane"
	"lyra/internal/eval"
	"lyra/internal/topo"
)

// wire-stream: the stateful NAT and flowlet scenarios on a k=8 pod,
// compiled tier, 2 lanes, headers-only packets. Set-up serializes each
// seeded trace to wire bytes once and computes the interpreter tier's
// output bytes and drop decisions from the same wire input. The timed loop
// carries bytes in to bytes out: ParseBytesFlat -> Feed -> Flush ->
// SerializeFlat. The dataplane does all the work; the compiler does none.

// streamScenarios are the lane-safe stateful scenarios the workload runs.
var streamScenarios = []string{"nat", "flowlet"}

const (
	streamLanes = 2
	streamBatch = 256
)

type streamScenario struct {
	name string
	dep  *dataplane.Deployment
	eng  *dataplane.Engine
	path []string
	key  func(*dataplane.FlatPacket) uint64
	wire [][]byte // the seeded trace on the wire, headers only
	want [][]byte // interpreter-tier output bytes
	drop []bool   // interpreter-tier drop decisions
}

type streamState struct {
	scen  []*streamScenario
	chunk int
	// Buffers reused by every chunk, so the timed loop allocates only what
	// the dataplane calls allocate.
	pkts     []*dataplane.FlatPacket
	payloads [][]byte
	out      [][]byte
}

func setupStream(cfg config, _ *report) (state, error) {
	net := topo.FatTreePod(cfg.size.streamK, asic.Tofino32Q)
	st := &streamState{chunk: cfg.size.streamChunk}
	for _, name := range streamScenarios {
		sc, ok := eval.ScenarioByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown scenario %q", name)
		}
		s, err := newStreamScenario(sc, net, cfg.size.streamPkts, cfg.seed)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		st.scen = append(st.scen, s)
	}
	st.pkts = make([]*dataplane.FlatPacket, st.chunk)
	st.payloads = make([][]byte, st.chunk)
	st.out = make([][]byte, st.chunk)
	return st, nil
}

func newStreamScenario(sc eval.Scenario, net *topo.Network, n int, seed int64) (*streamScenario, error) {
	dep, path, err := sc.Deploy(net)
	if err != nil {
		return nil, err
	}
	eng, err := dep.Engine()
	if err != nil {
		return nil, err
	}
	key, err := sc.FlowKey(eng)
	if err != nil {
		return nil, err
	}
	s := &streamScenario{name: sc.Name, dep: dep, eng: eng, path: path, key: key}
	for _, f := range eng.FlattenTrace(sc.Trace(n, seed), sc.TSField) {
		b, err := eng.SerializeFlat(f, nil)
		if err != nil {
			return nil, err
		}
		s.wire = append(s.wire, b)
	}
	s.want, s.drop, err = interpreterOutput(sc, net, s.wire)
	return s, err
}

// interpreterOutput streams the wire trace through the interpreter tier on
// a deployment of its own (the interpreter keeps its state in the
// deployment) and returns each packet's output bytes and drop decision.
func interpreterOutput(sc eval.Scenario, net *topo.Network, wire [][]byte) ([][]byte, []bool, error) {
	dep, path, err := sc.Deploy(net)
	if err != nil {
		return nil, nil, err
	}
	eng, err := dep.Engine()
	if err != nil {
		return nil, nil, err
	}
	key, err := sc.FlowKey(eng)
	if err != nil {
		return nil, nil, err
	}
	s, err := dep.OpenStream(path, dataplane.StreamOptions{Tier: dataplane.TierInterpreter, FlowKey: key})
	if err != nil {
		return nil, nil, err
	}
	pkts := make([]*dataplane.FlatPacket, len(wire))
	payloads := make([][]byte, len(wire))
	for i, b := range wire {
		if pkts[i], payloads[i], err = eng.ParseBytesFlat(b); err != nil {
			return nil, nil, err
		}
	}
	if err := s.Feed(pkts...); err != nil {
		return nil, nil, err
	}
	s.Close()
	want := make([][]byte, len(wire))
	drop := make([]bool, len(wire))
	for i, f := range pkts {
		if want[i], err = eng.SerializeFlat(f, payloads[i]); err != nil {
			return nil, nil, err
		}
		drop[i] = f.Dropped
	}
	return want, drop, nil
}

func (st *streamState) close() {}

// phaseCost is the time and heap allocations of one dataplane call kind.
type phaseCost struct {
	busy   time.Duration
	allocs uint64
}

// roundCost accumulates one round: every scenario's trace once.
type roundCost struct {
	pkts, dropped                 int
	parse, feed, flush, serialize phaseCost
	total                         phaseCost // untraced rounds
	drains                        uint64
	laneMaxSum, laneMeanSum       float64
}

// run carries rounds (every scenario's trace once) until the window
// closes; a round is the workload's operation. A traced run alternates an
// untraced round with a traced one and reports the tracing overhead as the
// median traced round's time over the median untraced one's, less 1.
func (st *streamState) run(cfg config, rep *report) error {
	var plain, traced []float64 // round times (ms)
	var items, busy float64
	deadline := time.Now().Add(cfg.window)
	for round := 1; round <= 2 || time.Now().Before(deadline); round++ {
		var rc roundCost
		spans := rep.spans
		if round%2 == 1 {
			spans = nil
		}
		for _, s := range st.scen {
			if err := st.pass(rep, spans, s, round, &rc); err != nil {
				return err
			}
		}
		pkts := float64(rc.pkts)
		if spans == nil {
			plain = append(plain, ms(rc.total.busy))
			items += pkts
			busy += rc.total.busy.Seconds()
			continue
		}
		exec := rc.parse.busy + rc.feed.busy + rc.flush.busy + rc.serialize.busy
		traced = append(traced, ms(exec))
		rep.addShare("dataplane.parse_share", rc.parse.busy, exec)
		rep.addShare("dataplane.feed_share", rc.feed.busy, exec)
		rep.addShare("dataplane.flush_share", rc.flush.busy, exec)
		rep.addShare("dataplane.serialize_share", rc.serialize.busy, exec)
		rep.add("dataplane.parse_allocs_per_pkt", "count", float64(rc.parse.allocs)/pkts)
		rep.add("dataplane.serialize_allocs_per_pkt", "count", float64(rc.serialize.allocs)/pkts)
		allocs := rc.parse.allocs + rc.feed.allocs + rc.flush.allocs + rc.serialize.allocs
		rep.add("dataplane.allocs_per_pkt", "count", float64(allocs)/pkts)
		rep.add("dataplane.drains", "count", float64(rc.drains))
		rep.add("dataplane.lane_imbalance", "ratio", rc.laneMaxSum/rc.laneMeanSum)
		rep.add("dataplane.drop_ratio", "ratio", float64(rc.dropped)/pkts)
	}
	if rep.spans != nil {
		rep.add("trace.overhead_ratio", "ratio", median(traced)/median(plain)-1)
		return nil
	}
	rep.addOps(plain, items, busy)
	return nil
}

// pass carries one scenario's wire trace through a fresh compiled-tier
// stream, chunk by chunk, and checks every output packet against the
// interpreter tier. A fresh stream starts from the deployment's pristine
// state, so every pass must reproduce the set-up reference exactly.
func (st *streamState) pass(rep *report, spans *tracer, s *streamScenario, round int, rc *roundCost) error {
	stream, err := s.dep.OpenStream(s.path, dataplane.StreamOptions{
		Tier: dataplane.TierCompiled, Lanes: streamLanes, BatchSize: streamBatch, FlowKey: s.key,
	})
	if err != nil {
		return err
	}
	defer stream.Close()
	for lo := 0; lo < len(s.wire); lo += st.chunk {
		hi := min(lo+st.chunk, len(s.wire))
		if err := st.chunkThrough(spans, s, stream, lo, hi, round, rc); err != nil {
			return err
		}
		for i := lo; i < hi; i++ {
			f, got := st.pkts[i-lo], st.out[i-lo]
			if rep.check(f != nil && got != nil && bytes.Equal(got, s.want[i]) && f.Dropped == s.drop[i],
				"%s packet %d: output differs from the interpreter tier", s.name, i) && f.Dropped {
				rc.dropped++
			}
		}
		rc.pkts += hi - lo
	}
	stats := stream.Stats()
	rc.drains += stats.Drains
	var sum, most uint64
	for _, n := range stats.LanePackets {
		sum += n
		most = max(most, n)
	}
	rc.laneMaxSum += float64(most)
	rc.laneMeanSum += float64(sum) / float64(len(stats.LanePackets))
	return nil
}

// chunkThrough runs packets lo..hi bytes in to bytes out. Untraced (t
// nil), the whole chunk is one timed segment; traced, each dataplane call
// kind is its own span and its allocations are counted apart. A packet that fails
// to parse or serialize is left nil and fails its check.
func (st *streamState) chunkThrough(t *tracer, s *streamScenario, stream *dataplane.Stream, lo, hi, round int, rc *roundCost) error {
	n := hi - lo
	pkts, payloads, out := st.pkts[:n], st.payloads[:n], st.out[:n]
	parse := func() {
		for i := range pkts {
			var err error
			if pkts[i], payloads[i], err = s.eng.ParseBytesFlat(s.wire[lo+i]); err != nil {
				pkts[i] = nil
			}
		}
	}
	var feedErr error
	feed := func() {
		live := pkts
		if slices.Contains(pkts, nil) { // feed only what parsed
			live = slices.DeleteFunc(slices.Clone(pkts), func(f *dataplane.FlatPacket) bool { return f == nil })
		}
		feedErr = stream.Feed(live...)
	}
	flush := func() { stream.Flush() }
	serialize := func() {
		for i, f := range pkts {
			out[i] = nil
			if f != nil {
				out[i], _ = s.eng.SerializeFlat(f, payloads[i])
			}
		}
	}
	if t == nil {
		rc.total.add(func() { parse(); feed(); flush(); serialize() })
		return feedErr
	}
	root := t.begin("stream.chunk", 0, round)
	defer t.end(root)
	rc.parse.addSpan(t, "dataplane.parse", root, round, parse)
	rc.feed.addSpan(t, "dataplane.feed", root, round, feed)
	rc.flush.addSpan(t, "dataplane.flush", root, round, flush)
	rc.serialize.addSpan(t, "dataplane.serialize", root, round, serialize)
	return feedErr
}

// add times fn and counts the heap allocations it makes.
func (p *phaseCost) add(fn func()) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	fn()
	p.busy += time.Since(start)
	runtime.ReadMemStats(&after)
	p.allocs += after.Mallocs - before.Mallocs
}

// addSpan is add with fn inside a span.
func (p *phaseCost) addSpan(t *tracer, name string, parent, run int, fn func()) {
	p.add(func() { t.do(name, parent, run, fn) })
}
