package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"runtime"
	"time"

	"lyra"
	"lyra/internal/asic"
	"lyra/internal/backend"
	"lyra/internal/encode"
	"lyra/internal/frontend"
	"lyra/internal/ir"
	"lyra/internal/lang/ast"
	"lyra/internal/lang/checker"
	"lyra/internal/lang/parser"
	"lyra/internal/scope"
	"lyra/internal/topo"
	"lyra/internal/verify"
)

// lbScope places the load balancer across each Agg->ToR path, so its
// connection table shards over the switches of every path (MULTI-SW).
const lbScope = `loadbalancer: [ ToR*,Agg* | MULTI-SW | (Agg*->ToR*) ]`

// lbSource is the stateful load balancer of the scale experiment; the
// table sizes select how hard placement and sharding work.
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

// The fabric program: a 5.5M-entry connection table must shard across
// every Agg->ToR path, so each pod's placement does real theory work.
var fabricSource = lbSource(5_500_000, 1_000_000)

// fabricNet is the k-pod multi-pod fat tree (k*k pod switches plus k cores)
// with a uniform Tofino model.
func fabricNet(k int) *topo.Network {
	return topo.MultiPodFatTree(k, k, func(string, int) *asic.Model { return asic.Tofino32Q })
}

// fabricCompiler is the untraced compiler of both compile workloads: lazy
// paths, verification on, every other option at its default.
func fabricCompiler() *lyra.Compiler { return lyra.New(lyra.WithLazyPaths(0)) }

// The traced composition below makes the same public calls core makes for
// fabricCompiler, in the same order and with the same options, with a span
// around each. Its artifacts and plan fingerprints are compared, by digest,
// with the untraced compiler's on every traced operation, so it cannot
// drift from core unnoticed.

// composed is the product of a traced compile or recompile.
type composed struct {
	irp     *ir.Program
	plan    *encode.Plan
	arts    map[string]*backend.Artifact
	fps     map[string]string
	reports []verify.Report
	cache   *encode.Cache
	emitted int // switches translated (all on a compile, changed ones on a recompile)
	// Data-plane code and control-plane stub bytes of the switches
	// translated.
	emittedDP, emittedCP int
}

// layerTimes are the per-layer durations of one traced operation; total is
// the operation's root span.
type layerTimes struct {
	frontend, scope, solve, fingerprint, translate, verify time.Duration
	total                                                  time.Duration
	translateAlloc                                         uint64 // bytes allocated by Translate
}

// tracedCompile runs parse -> check -> preprocess -> analyze -> scope ->
// encode.Solve -> Fingerprints -> Translate -> PlanParallel.
func tracedCompile(t *tracer, run int, src string, net *topo.Network) (c *composed, lt layerTimes, err error) {
	root := t.begin("compile", 0, run)
	defer func() { lt.total = t.end(root) }()

	var prog *ast.Program
	var irp *ir.Program
	lt.frontend += t.do("frontend.parse", root, run, func() { prog, err = parser.Parse("input.lyra", []byte(src)) })
	if err != nil {
		return nil, lt, fmt.Errorf("parse: %w", err)
	}
	lt.frontend += t.do("frontend.check", root, run, func() { err = checker.Check(prog) })
	if err != nil {
		return nil, lt, fmt.Errorf("check: %w", err)
	}
	lt.frontend += t.do("frontend.preprocess", root, run, func() { irp, err = frontend.Preprocess(prog) })
	if err != nil {
		return nil, lt, fmt.Errorf("preprocess: %w", err)
	}
	lt.frontend += t.do("frontend.analyze", root, run, func() { frontend.Analyze(irp) })

	c, err = tracedBackHalf(t, root, run, &lt, irp, net, scope.ResolveOpts{LazyPaths: true}, nil)
	return c, lt, err
}

// tracedRecompile mirrors core.Recompile: lenient scope resolution on the
// degraded network, the previous IR and solver cache, and translation of
// only the switches whose plan fingerprint changed.
func tracedRecompile(t *tracer, run int, prev *composed, net *topo.Network) (c *composed, lt layerTimes, err error) {
	root := t.begin("recompile", 0, run)
	defer func() { lt.total = t.end(root) }()
	c, err = tracedBackHalf(t, root, run, &lt, prev.irp, net, scope.ResolveOpts{AllowMissing: true, LazyPaths: true}, prev)
	return c, lt, err
}

func tracedBackHalf(t *tracer, root, run int, lt *layerTimes, irp *ir.Program, net *topo.Network, ro scope.ResolveOpts, prev *composed) (*composed, error) {
	var scopes map[string]*scope.Resolved
	var err error
	lt.scope = t.do("scope.resolve", root, run, func() {
		var spec *scope.Spec
		if spec, err = scope.Parse(lbScope); err == nil {
			scopes, err = spec.ResolveWith(net, ro)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("scope: %w", err)
	}

	out := &composed{irp: irp, cache: encode.NewCache()}
	if prev != nil {
		out.cache = prev.cache
	}
	opts := encode.DefaultOptions()
	opts.Ctx = context.Background()
	opts.Cache = out.cache
	lt.solve = t.do("encode.solve", root, run, func() {
		out.plan, err = encode.Solve(&encode.Input{IR: irp, Net: net, Scopes: scopes}, opts)
	})
	if err != nil {
		return nil, err
	}

	lt.fingerprint = t.do("backend.fingerprint", root, run, func() { out.fps = out.plan.Fingerprints() })
	topts := &backend.Options{}
	reused := map[string]*backend.Artifact{}
	if prev != nil {
		topts.Only = map[string]bool{}
		for sw, fp := range out.fps {
			if prev.fps[sw] == fp && prev.arts[sw] != nil {
				reused[sw] = prev.arts[sw]
			} else {
				topts.Only[sw] = true
			}
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	lt.translate = t.do("backend.translate", root, run, func() { out.arts, err = backend.Translate(out.plan, topts) })
	runtime.ReadMemStats(&after)
	lt.translateAlloc = after.TotalAlloc - before.TotalAlloc
	if err != nil {
		return nil, fmt.Errorf("translate: %w", err)
	}
	out.emitted = len(out.arts)
	out.emittedDP, out.emittedCP = artifactBytes(out.arts)
	for sw, art := range reused {
		out.arts[sw] = art
	}

	lt.verify = t.do("verify.plan", root, run, func() { out.reports = verify.PlanParallel(out.plan, out.arts, 0) })
	for _, r := range out.reports {
		if !r.OK {
			return out, fmt.Errorf("verification failed on %s: %v", r.Switch, r.Problems)
		}
	}
	return out, nil
}

// addCompileLayers records the per-layer metrics of one traced compile or
// recompile. Layer times are shares of the operation's root span.
func (r *report) addCompileLayers(c *composed, lt layerTimes) {
	plan := c.plan
	if lt.frontend > 0 { // a recompile reuses the previous IR
		r.addShare("frontend.share", lt.frontend, lt.total)
	}
	r.addShare("scope.share", lt.scope, lt.total)
	r.addShare("encode.encode_share", plan.EncodeTime, lt.total)
	r.addShare("encode.solve_share", plan.SolveTime, lt.total)
	r.add("encode.components", "count", float64(plan.Instances))
	r.add("encode.classes_solved", "count", float64(plan.Classes))
	r.add("encode.dedup_hit_ratio", "ratio", float64(plan.Replayed)/float64(max(plan.Instances, 1)))
	r.add("encode.cache_hit_ratio", "ratio", float64(plan.Stats.CacheHits)/float64(max(plan.Classes, 1)))
	r.add("encode.vars", "count", float64(plan.EncodedVars))
	r.add("encode.clauses", "count", float64(plan.EncodedClauses))
	r.addShare("backend.fingerprint_share", lt.fingerprint, lt.total)
	r.addShare("backend.translate_share", lt.translate, lt.total)
	r.add("backend.translate_alloc_mb", "MB", float64(lt.translateAlloc)/1e6)
	r.add("backend.switches_emitted", "count", float64(c.emitted))
	r.add("backend.dataplane_mb", "MB", float64(c.emittedDP)/1e6)
	r.add("backend.controlplane_mb", "MB", float64(c.emittedCP)/1e6)
	r.addShare("verify.share", lt.verify, lt.total)
	r.add("verify.switches", "count", float64(len(c.reports)))
}

// digests content-hashes each switch's artifact bytes and plan
// fingerprint. A traced operation compares its digests with the untraced
// one's, so neither side holds the other's artifacts in memory while it
// runs.
func digests(arts map[string]*backend.Artifact, fps map[string]string) map[string][sha256.Size]byte {
	out := make(map[string][sha256.Size]byte, len(arts))
	for sw, a := range arts {
		h := sha256.New()
		for _, part := range []string{a.Code, a.ControlPlane, fps[sw]} {
			fmt.Fprintf(h, "%d:%s", len(part), part)
		}
		var d [sha256.Size]byte
		h.Sum(d[:0])
		out[sw] = d
	}
	return out
}

// sameDigests names the first switch whose traced artifact differs from
// the untraced one.
func sameDigests(traced, untraced map[string][sha256.Size]byte) error {
	if len(traced) != len(untraced) {
		return fmt.Errorf("traced run emitted %d switches, untraced %d", len(traced), len(untraced))
	}
	for _, sw := range sortedKeys(untraced) {
		if traced[sw] != untraced[sw] {
			return fmt.Errorf("switch %s: traced artifact differs from untraced", sw)
		}
	}
	return nil
}

// verified reports whether every admission report of a result passed.
func verified(reports []lyra.Report) bool {
	for _, r := range reports {
		if !r.OK {
			return false
		}
	}
	return len(reports) > 0
}

// artifactBytes sums the data-plane code and control-plane stub bytes.
func artifactBytes(arts map[string]*backend.Artifact) (dataPlane, controlPlane int) {
	for _, a := range arts {
		dataPlane += len(a.Code)
		controlPlane += len(a.ControlPlane)
	}
	return dataPlane, controlPlane
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
