package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"lyra"
	"lyra/internal/topo"
)

// switch-recompile and link-recompile: the §6.3 loop. The fabric program
// is compiled once in set-up; then a seeded sequence of single faults is
// drawn, and each is applied to a fresh clone of the pristine network and
// recompiled from the pristine result. switch-recompile takes a ToR or an
// Agg down, link-recompile a ToR-Agg link. The two kinds use the layers
// very differently (a switch fault reprograms nearly every switch, a link
// fault none), so each is a workload of its own and no median lands
// between the two.
//
// Every recompile leaves one more component solver in the solver cache the
// pristine result carries, so the live heap grows with each fault until
// the cache's LRU bound, and with it how often the collector runs inside a
// recompile: latency would depend on how many faults a run got through.
// The pristine result is therefore compiled afresh (untimed) every
// faultsPerPristine faults, which keeps every run's mix of cache states the
// same.
const faultsPerPristine = 10

type faultState struct {
	net    *topo.Network
	c      *lyra.Compiler
	prev   *lyra.Result
	tprev  *composed // traced runs: the pristine compile through the composition
	faults func() (ev lyra.FaultEvent, failed string)
}

func setupSwitchFault(cfg config, rep *report) (state, error) { return setupFault(cfg, rep, false) }
func setupLinkFault(cfg config, rep *report) (state, error)   { return setupFault(cfg, rep, true) }

func setupFault(cfg config, rep *report, links bool) (state, error) {
	s := &faultState{net: fabricNet(cfg.size.fabricK), c: fabricCompiler(), faults: faultSequence(cfg.seed, cfg.size.fabricK, links)}
	return s, s.pristine(rep)
}

// pristine compiles the fabric program on the intact network (and, on a
// traced run, through the traced composition too).
func (s *faultState) pristine(rep *report) error {
	s.prev, s.tprev = nil, nil
	prev, err := s.c.Compile(context.Background(), fabricSource, lbScope, s.net)
	if err != nil {
		return err
	}
	if !verified(prev.Reports) {
		return fmt.Errorf("pristine compile failed verification")
	}
	s.prev = prev
	if rep.spans != nil {
		tprev, _, err := tracedCompile(rep.spans, 0, fabricSource, s.net)
		if err == nil {
			err = sameDigests(digests(tprev.arts, tprev.fps), digests(prev.Artifacts, prev.Fingerprints))
		}
		if err != nil {
			return fmt.Errorf("traced pristine compile: %w", err)
		}
		s.tprev = tprev
	}
	return nil
}

// faultSequence draws single faults on the k-pod fabric: ToR-Agg links
// down, or else a ToR and an Agg down in turn, so every run has the same
// mix of the two. failed names the switch a switch fault removes ("" for a
// link).
func faultSequence(seed int64, k int, links bool) func() (lyra.FaultEvent, string) {
	rng := rand.New(rand.NewSource(seed))
	n := 0
	return func() (lyra.FaultEvent, string) {
		n++
		pod, tor, agg := 1+rng.Intn(k), 1+rng.Intn(k/2), 1+rng.Intn(k/2)
		torName, aggName := fmt.Sprintf("ToR%d_%d", pod, tor), fmt.Sprintf("Agg%d_%d", pod, agg)
		switch {
		case links:
			return lyra.LinkDown(torName, aggName), ""
		case n%2 == 0:
			return lyra.SwitchDown(torName), torName
		default:
			return lyra.SwitchDown(aggName), aggName
		}
	}
}

func (s *faultState) close() {}

// checkDelta checks a recompile's Delta: the failed switch is removed, and
// every switch listed unchanged kept its predecessor's artifact byte for
// byte.
func (s *faultState) checkDelta(rep *report, n int, failed string, res *lyra.Result, d *lyra.Delta) {
	if failed != "" {
		rep.check(slices.Contains(d.Removed, failed), "fault %d: failed switch %s not in Delta.Removed", n, failed)
	}
	changed := slices.IndexFunc(d.Unchanged, func(sw string) bool {
		a, b := s.prev.Artifacts[sw], res.Artifacts[sw]
		return a == nil || b == nil || a.Code != b.Code || a.ControlPlane != b.ControlPlane
	})
	rep.check(changed < 0, "fault %d: a switch listed unchanged has a different artifact", n)
}

// survivorsReprogrammed is the share of the switches programmed before and
// after the fault that the Delta lists to reprogram.
func (s *faultState) survivorsReprogrammed(d *lyra.Delta) float64 {
	n := 0
	for _, sw := range d.Reprogram {
		if _, ok := s.prev.Fingerprints[sw]; ok {
			n++
		}
	}
	return float64(n) / float64(max(n+len(d.Unchanged), 1))
}

func (s *faultState) run(cfg config, rep *report) error {
	if cfg.trace {
		return s.runTraced(cfg, rep)
	}
	ctx := context.Background()
	var lat []float64
	busy := 0.0
	deadline := time.Now().Add(cfg.window)
	for n := 1; n == 1 || time.Now().Before(deadline); n++ {
		if n%faultsPerPristine == 0 {
			if err := s.pristine(rep); err != nil {
				return err
			}
		}
		ev, failed := s.faults()
		sc := lyra.Scenario{Name: ev.String(), Events: []lyra.FaultEvent{ev}}
		runtime.GC()
		start := time.Now()
		res, d, err := s.c.Recompile(ctx, s.prev, sc)
		elapsed := ms(time.Since(start))
		if !rep.check(err == nil && verified(res.Reports), "fault %d (%s): %v", n, ev, err) {
			continue
		}
		s.checkDelta(rep, n, failed, res, d)
		lat = append(lat, elapsed)
		busy += elapsed / 1e3
	}
	rep.addOps(lat, float64(len(lat)), busy)
	return nil
}

// runTraced alternates the untraced Recompile with the traced composition
// of the same recompile on every fault, checks both emit identical
// artifacts, and records the per-layer metrics and the tracing overhead
// (the median of a traced recompile's time over the untraced one's, less
// 1).
func (s *faultState) runTraced(cfg config, rep *report) error {
	ctx := context.Background()
	var overhead []float64
	deadline := time.Now().Add(cfg.window)
	for n := 1; n == 1 || time.Now().Before(deadline); n++ {
		if n%faultsPerPristine == 0 {
			if err := s.pristine(rep); err != nil {
				return err
			}
		}
		ev, failed := s.faults()
		sc := lyra.Scenario{Name: ev.String(), Events: []lyra.FaultEvent{ev}}
		runtime.GC()
		start := time.Now()
		res, d, err := s.c.Recompile(ctx, s.prev, sc)
		plain := ms(time.Since(start))
		if !rep.check(err == nil && verified(res.Reports), "fault %d (%s): %v", n, ev, err) {
			continue
		}
		s.checkDelta(rep, n, failed, res, d)
		want := digests(res.Artifacts, res.Fingerprints)
		over := 0 // switches listed to reprogram whose artifact bytes did not change
		for _, sw := range d.Reprogram {
			if a, b := s.prev.Artifacts[sw], res.Artifacts[sw]; a != nil && a.Code == b.Code && a.ControlPlane == b.ControlPlane {
				over++
			}
		}
		res = nil

		runtime.GC()
		start = time.Now()
		net := s.net.Clone()
		rep.spans.do("faults.apply", 0, n, func() { err = sc.Apply(net) })
		var c *composed
		var lt layerTimes
		if err == nil {
			c, lt, err = tracedRecompile(rep.spans, n, s.tprev, net)
		}
		traced := ms(time.Since(start))
		if err == nil {
			err = sameDigests(digests(c.arts, c.fps), want)
		}
		if !rep.check(err == nil, "traced fault %d (%s): %v", n, ev, err) {
			continue
		}
		overhead = append(overhead, traced/plain-1)
		rep.addCompileLayers(c, lt)
		rep.add("core.delta_reprogram", "count", float64(len(d.Reprogram)))
		rep.add("core.delta_unchanged", "count", float64(len(d.Unchanged)))
		rep.add("core.delta_overreport", "count", float64(over))
		rep.add("core.reprogram_frac", "ratio", s.survivorsReprogrammed(d))
	}
	rep.add("trace.overhead_ratio", "ratio", median(overhead))
	return nil
}
