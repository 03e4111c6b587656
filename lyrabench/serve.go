package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"lyra"
	"lyra/internal/serve"
)

// serve-tenants: an in-process daemon on a loopback listener, driven
// closed-loop by serveClients tenants, each waiting for every reply. Each
// tenant owns a session on a fat-tree pod and cycles compile, compile,
// fault, compile, compile, recovery: faults and recoveries go through the
// session's recompile, and a seeded half of the one-shot compiles repeat
// one of the tenant's recent requests (a cache hit) while the rest are
// fresh (a miss). This is the only workload that reaches admission, the
// single-flight cache, session coalescing and HTTP/JSON.

const (
	serveClients = 2
	// repeatWindow bounds how far back a repeated request reaches, well
	// inside the daemon's cache so a repeat is a hit.
	repeatWindow = 32
)

type serveState struct {
	k       int
	srv     *serve.Server
	hs      *http.Server
	served  chan error
	tr      *http.Transport
	tenants []*tenant
}

type tenant struct {
	id      int
	client  *serve.Client
	session string
	baseFP  string
}

// tenantSource is tenant t's n-th distinct program: the load balancer with
// a VIP table size no other tenant or request uses.
func tenantSource(t, n int) string {
	return lbSource(5_500_000, 1_000_000-t*100_000-n)
}

func (st *serveState) request(src string) serve.CompileRequest {
	return serve.CompileRequest{Source: src, Scope: lbScope, Topology: fmt.Sprintf("fattree:%d", st.k)}
}

func setupServe(cfg config, _ *report) (state, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	st := &serveState{
		k:      cfg.size.serveK,
		srv:    serve.NewServer(serve.Config{}),
		served: make(chan error, 1),
		tr:     &http.Transport{MaxIdleConnsPerHost: serveClients},
	}
	st.hs = &http.Server{Handler: st.srv.Handler()}
	go func() { st.served <- st.hs.Serve(ln) }()
	ctx := context.Background()
	for t := 0; t < serveClients; t++ {
		c := &serve.Client{BaseURL: "http://" + ln.Addr().String(), HTTPClient: &http.Client{Transport: st.tr}}
		resp, err := c.NewSession(ctx, st.request(tenantSource(t, 0)))
		if err != nil {
			st.close()
			return nil, fmt.Errorf("tenant %d session: %w", t, err)
		}
		st.tenants = append(st.tenants, &tenant{id: t, client: c, session: resp.ID, baseFP: resp.Compile.Fingerprint})
	}
	return st, nil
}

// close drains the daemon, stops the HTTP server and waits for it.
func (st *serveState) close() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	_ = st.srv.Drain(ctx) // a drain that times out still leaves Shutdown to stop the listener
	_ = st.hs.Shutdown(ctx)
	if err := <-st.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "serve: %v\n", err)
	}
	st.tr.CloseIdleConnections()
}

// outcome is one client request as the client saw it.
type outcome struct {
	kind      string // "hit", "miss" or "recompile"
	traced    bool
	ms        float64
	serverMs  float64 // CompileResponse.CompileMs (compiles only)
	err       error
	src       string // compiles: the program compiled
	fp        string // compiles: the artifact fingerprint returned
	wantBase  bool   // recoveries: the session must be back on its base fingerprint
	sessionFP string // recompiles: the session fingerprint returned
}

// faultEvent draws a seeded fault on the pod and the event that recovers
// from it.
func faultEvent(rng *rand.Rand, k int) (down, up serve.WireEvent) {
	tor, agg := fmt.Sprintf("ToR%d", 1+rng.Intn(k/2)), fmt.Sprintf("Agg%d", 1+rng.Intn(k/2))
	switch rng.Intn(3) {
	case 0:
		return serve.WireEvent{Kind: "switch-down", Switch: tor}, serve.WireEvent{Kind: "switch-up", Switch: tor}
	case 1:
		return serve.WireEvent{Kind: "switch-down", Switch: agg}, serve.WireEvent{Kind: "switch-up", Switch: agg}
	default:
		return serve.WireEvent{Kind: "link-down", A: tor, B: agg}, serve.WireEvent{Kind: "link-up", A: tor, B: agg}
	}
}

// drive runs one tenant's closed loop until the deadline. On a traced run
// every other cycle of six requests is traced, so that the traced and the
// untraced requests compare.
func (st *serveState) drive(tn *tenant, seed int64, deadline time.Time, spans *tracer) []outcome {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(tn.id)))
	ctx := context.Background()
	var out []outcome
	var fresh []string
	repeats := 0
	var up serve.WireEvent
	// Past the deadline, finish the fault/recovery cycle and make sure a
	// repeat was drawn, so every request kind is measured at least once.
	for step := 0; time.Now().Before(deadline) || step%6 != 0 || repeats == 0; step++ {
		var o outcome
		var t *tracer
		if (step/6)%2 == 1 {
			t = spans
		}
		o.traced = t != nil
		switch step % 6 {
		case 2, 5:
			var ev serve.WireEvent
			if step%6 == 2 {
				ev, up = faultEvent(rng, st.k)
			} else {
				ev, o.wantBase = up, true
			}
			o.kind = "recompile"
			var status serve.SessionStatus
			start := time.Now()
			t.do("serve.recompile", 0, tn.id+1, func() { status, o.err = tn.client.Recompile(ctx, tn.session, []serve.WireEvent{ev}) })
			o.ms = ms(time.Since(start))
			if o.err == nil && status.LastError != "" {
				o.err = fmt.Errorf("%s: %s", status.LastErrorKind, status.LastError)
			}
			o.sessionFP = status.Fingerprint
		default:
			if len(fresh) > 0 && rng.Intn(2) == 0 {
				o.src = fresh[len(fresh)-1-rng.Intn(min(len(fresh), repeatWindow))]
				repeats++
			} else {
				o.src = tenantSource(tn.id, len(fresh)+1)
				fresh = append(fresh, o.src)
			}
			var resp serve.CompileResponse
			start := time.Now()
			t.do("serve.compile", 0, tn.id+1, func() { resp, o.err = tn.client.Compile(ctx, st.request(o.src)) })
			o.ms = ms(time.Since(start))
			o.kind, o.serverMs, o.fp = "miss", resp.CompileMs, resp.Fingerprint
			if resp.Cached {
				o.kind = "hit"
			}
		}
		out = append(out, o)
	}
	return out
}

func (st *serveState) run(cfg config, rep *report) error {
	start := time.Now()
	deadline := start.Add(cfg.window)
	results := make([][]outcome, len(st.tenants))
	var wg sync.WaitGroup
	for i, tn := range st.tenants {
		wg.Add(1)
		go func(i int, tn *tenant) {
			defer wg.Done()
			results[i] = st.drive(tn, cfg.seed, deadline, rep.spans)
		}(i, tn)
	}
	wg.Wait()
	elapsed := time.Since(start)

	refs, err := st.references(results)
	if err != nil {
		return err
	}
	var all []float64
	byKind := map[string][]float64{}
	var serverMs, overhead []float64 // misses: server compile time, and the share of latency outside it
	var plain, traced []float64      // traced runs: latencies of untraced and traced requests
	completed := 0
	for i, outs := range results {
		tn := st.tenants[i]
		for _, o := range outs {
			err := o.err
			switch {
			case err != nil:
			case o.kind == "recompile" && o.wantBase && o.sessionFP != tn.baseFP:
				err = fmt.Errorf("session fingerprint %s after recovery, base %s", o.sessionFP, tn.baseFP)
			case o.kind != "recompile" && o.fp != refs[o.src]:
				err = fmt.Errorf("fingerprint %s, in-process compile %s", o.fp, refs[o.src])
			}
			if !rep.check(err == nil, "tenant %d %s: %v", tn.id, o.kind, err) {
				all = append(all, math.Inf(1)) // a failed request misses any latency limit
				continue
			}
			completed++
			all = append(all, o.ms)
			byKind[o.kind] = append(byKind[o.kind], o.ms)
			if o.kind == "miss" {
				serverMs = append(serverMs, o.serverMs)
				overhead = append(overhead, (o.ms-o.serverMs)/o.ms)
			}
			if o.traced {
				traced = append(traced, o.ms)
			} else {
				plain = append(plain, o.ms)
			}
		}
	}
	if !cfg.trace {
		rep.addOps(all, float64(completed), elapsed.Seconds())
		return nil
	}
	hit, miss := median(byKind["hit"]), median(byKind["miss"])
	rep.add("serve.hit_to_miss_latency", "ratio", hit/miss)
	rep.add("serve.overhead_share", "ratio", median(overhead))
	rep.add("trace.overhead_ratio", "ratio", median(traced)/median(plain)-1)
	// Per-kind latencies go to the record only.
	rep.add("serve.hit_ms", "ms", hit)
	rep.add("serve.miss_ms", "ms", miss)
	rep.add("serve.recompile_ms", "ms", median(byKind["recompile"]))
	rep.add("serve.server_compile_ms", "ms", median(serverMs))
	m, err := st.tenants[0].client.Metrics(context.Background())
	if err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	rep.add("serve.cache_hit_ratio", "ratio", float64(m.CacheHits)/float64(max(m.CacheHits+m.CacheMisses, 1)))
	rep.add("serve.deduped", "count", float64(m.Deduped))
	rep.add("serve.shed", "count", float64(m.Shed))
	rep.add("serve.degraded", "count", float64(m.DegradedSkipVerify+m.DegradedStale))
	rep.add("serve.coalesced_events", "count", float64(m.CoalescedEvents))
	return nil
}

// references compiles every distinct program the tenants compiled, in
// process and with the daemon's compiler settings, and returns each one's
// artifact fingerprint. It runs after the timed window, serveClients at a
// time.
func (st *serveState) references(results [][]outcome) (map[string]string, error) {
	var srcs []string
	refs := map[string]string{}
	for _, outs := range results {
		for _, o := range outs {
			if _, seen := refs[o.src]; o.src != "" && !seen {
				refs[o.src] = ""
				srcs = append(srcs, o.src)
			}
		}
	}
	c := lyra.New(lyra.WithSourceName("serve.lyra"), lyra.WithParallelism(1))
	fps := make([]string, len(srcs))
	errs := make([]error, len(srcs))
	var wg sync.WaitGroup
	for w := 0; w < serveClients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(srcs); i += serveClients {
				res, err := c.Compile(context.Background(), srcs[i], lbScope, lyra.FatTreePod(st.k, lyra.Tofino32Q))
				if err != nil {
					errs[i] = err
					continue
				}
				fps[i] = res.ArtifactFingerprint()
			}
		}(w)
	}
	wg.Wait()
	for i, src := range srcs {
		if errs[i] != nil {
			return nil, fmt.Errorf("reference compile: %w", errs[i])
		}
		refs[src] = fps[i]
	}
	return refs, nil
}
