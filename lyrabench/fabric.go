package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"lyra"
	"lyra/internal/scope"
	"lyra/internal/topo"
)

// fabric-compile: a cold compile of the stateful load balancer over the
// k=32 multi-pod fat tree (1040 switches), verification on. Codegen, verify
// and encode do nearly all the work; the dataplane and serve do none.

type fabricState struct {
	net *topo.Network
	c   *lyra.Compiler
	fp  string // artifact fingerprint of the set-up compile
}

func setupFabric(cfg config, rep *report) (state, error) {
	net := fabricNet(cfg.size.fabricK)
	c := fabricCompiler()
	res, err := c.Compile(context.Background(), fabricSource, lbScope, net)
	if err != nil {
		return nil, err
	}
	if !verified(res.Reports) {
		return nil, fmt.Errorf("set-up compile failed verification")
	}
	if err := checkSimulation(cfg, rep, res, net); err != nil {
		return nil, err
	}
	return &fabricState{net: net, c: c, fp: res.ArtifactFingerprint()}, nil
}

// checkSimulation replays a seeded sample of flow-path packets through the
// compiled deployment (compiled execution tier) and through the IR
// interpreter's one-big-pipeline reference; each packet is one check.
func checkSimulation(cfg config, rep *report, res *lyra.Result, net *topo.Network) error {
	rng := rand.New(rand.NewSource(cfg.seed))
	tables := lyra.NewTables()
	vips := make([]uint64, 16)
	for i := range vips {
		vips[i] = 0x0A000000 + uint64(rng.Intn(1<<20))
		tables.Set("vip_table", vips[i], 0xC0A80000+uint64(i))
	}
	sim, err := res.Simulate(tables)
	if err != nil {
		return fmt.Errorf("simulate: %w", err)
	}
	paths, err := samplePaths(rng, net, cfg.size.simPackets)
	if err != nil {
		return err
	}
	for i, path := range paths {
		pkt := lyra.NewPacket()
		pkt.Valid["ipv4"], pkt.Valid["tcp"] = true, true
		pkt.Fields["ipv4.srcAddr"] = uint64(rng.Uint32())
		pkt.Fields["ipv4.dstAddr"] = uint64(rng.Uint32())
		if i%2 == 0 {
			pkt.Fields["ipv4.dstAddr"] = vips[rng.Intn(len(vips))]
		}
		pkt.Fields["ipv4.protocol"] = 6
		pkt.Fields["tcp.srcPort"] = uint64(rng.Intn(1 << 16))
		pkt.Fields["tcp.dstPort"] = uint64(rng.Intn(1 << 16))
		ctx := &lyra.SimContext{}
		want, werr := sim.RunReference(ctx, pkt.Clone())
		got, gerr := sim.RunPathCompiled(path, ctx, pkt.Clone())
		rep.check(werr == nil && gerr == nil && want.Summary() == got.Summary(),
			"simulate %v: compiled path differs from reference (%v, %v)", path, werr, gerr)
	}
	return nil
}

// samplePaths draws n flow paths of the load balancer's scope uniformly
// (reservoir sampling over the lazy enumeration).
func samplePaths(rng *rand.Rand, net *topo.Network, n int) ([][]string, error) {
	spec, err := scope.Parse(lbScope)
	if err != nil {
		return nil, err
	}
	scopes, err := spec.ResolveWith(net, scope.ResolveOpts{LazyPaths: true})
	if err != nil {
		return nil, err
	}
	var out [][]string
	seen := 0
	err = scopes["loadbalancer"].EachPath(func(p []string) bool {
		seen++
		if len(out) < n {
			out = append(out, append([]string(nil), p...))
		} else if j := rng.Intn(seen); j < n {
			out[j] = append([]string(nil), p...)
		}
		return true
	})
	if err == nil && len(out) == 0 {
		err = fmt.Errorf("scope has no flow paths")
	}
	return out, err
}

func (s *fabricState) close() {}

func (s *fabricState) run(cfg config, rep *report) error {
	if cfg.trace {
		return s.runTraced(cfg, rep)
	}
	ctx := context.Background()
	var lat []float64
	busy := 0.0
	deadline := time.Now().Add(cfg.window)
	for n := 0; n == 0 || time.Now().Before(deadline); n++ {
		runtime.GC()
		start := time.Now()
		res, err := s.c.Compile(ctx, fabricSource, lbScope, s.net)
		elapsed := ms(time.Since(start))
		if !rep.check(err == nil && verified(res.Reports), "compile %d: %v", n, err) {
			continue
		}
		rep.check(res.ArtifactFingerprint() == s.fp, "compile %d: artifact fingerprint differs from the set-up compile", n)
		lat = append(lat, elapsed)
		busy += elapsed / 1e3
	}
	rep.addOps(lat, float64(len(lat)), busy)
	return nil
}

// runTraced alternates an untraced compile with a traced composition of
// the same compile, checks that both emit identical artifacts, and records
// the per-layer metrics plus the tracing overhead (the median of a traced
// compile's time over the untraced one's before it, less 1).
func (s *fabricState) runTraced(cfg config, rep *report) error {
	ctx := context.Background()
	var overhead []float64
	deadline := time.Now().Add(cfg.window)
	for n := 1; n == 1 || time.Now().Before(deadline); n++ {
		runtime.GC()
		start := time.Now()
		res, err := s.c.Compile(ctx, fabricSource, lbScope, s.net)
		plain := ms(time.Since(start))
		if !rep.check(err == nil && verified(res.Reports), "compile %d: %v", n, err) {
			continue
		}
		want := digests(res.Artifacts, res.Fingerprints)
		res = nil
		runtime.GC()
		c, lt, err := tracedCompile(rep.spans, n, fabricSource, s.net)
		if err == nil {
			err = sameDigests(digests(c.arts, c.fps), want)
		}
		if !rep.check(err == nil, "traced compile %d: %v", n, err) {
			continue
		}
		overhead = append(overhead, ms(lt.total)/plain-1)
		rep.addCompileLayers(c, lt)
	}
	rep.add("trace.overhead_ratio", "ratio", median(overhead))
	return nil
}
