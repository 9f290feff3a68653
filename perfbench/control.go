package main

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"manorm/internal/controlplane"
	"manorm/internal/fabric"
	"manorm/internal/mat"
	"manorm/internal/openflow"
	"manorm/internal/packet"
	"manorm/internal/switches"
	"manorm/internal/usecases"
)

const (
	members = 3
	// raceEvery makes every raceEvery-th control step a racing pair: a
	// port change and a wildcard-port catch-all on one service, which the
	// syntactic commutation check flags and the semantic oracle refutes.
	raceEvery = 8
)

// timedSwitch is the switch handed to each agent: it times every Install
// (the agent's barrier commit) under the control step in flight.
type timedSwitch struct {
	switches.Switch
	tr *tracer
	mu sync.Mutex
	// installs holds the duration of every Install in ns.
	installs []float64
}

func (s *timedSwitch) Install(p *mat.Pipeline) error {
	sp := s.tr.begin("switches.install", s.tr.epoch.Load(), -1)
	start := time.Now()
	err := s.Switch.Install(p)
	d := time.Since(start)
	s.tr.end(sp)
	s.mu.Lock()
	s.installs = append(s.installs, float64(d.Nanoseconds()))
	s.mu.Unlock()
	return err
}

func (s *timedSwitch) takeInstalls() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.installs
	s.installs = nil
	return out
}

// countingConn is the controller end of a member's control channel: it
// counts bytes both ways and spans every write under the control step in
// flight.
type countingConn struct {
	net.Conn
	tr    *tracer
	bytes *atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	sp := c.tr.begin("openflow.write", c.tr.epoch.Load(), -1)
	n, err := c.Conn.Write(p)
	c.tr.end(sp)
	c.bytes.Add(int64(n))
	return n, err
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.bytes.Add(int64(n))
	return n, err
}

// fabricRig is a 3-member replicated fabric of ESwitch agents over
// loopback TCP, without injected faults.
type fabricRig struct {
	f       *fabric.Fabric
	sws     []*timedSwitch
	bytes   atomic.Int64
	cancel  context.CancelFunc
	lns     []net.Listener
	wg      sync.WaitGroup
	initial uint64
}

// newFabricRig brings the fabric up on the gateway's goto program.
func newFabricRig(g *usecases.GwLB, seed int64, tr *tracer) (*fabricRig, error) {
	src, err := g.Build(usecases.RepGoto)
	if err != nil {
		return nil, err
	}
	placed, err := fabric.Place(src, members, fabric.Replicate)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	r := &fabricRig{cancel: cancel}
	specs := make([]fabric.MemberSpec, members)
	for i := 0; i < members; i++ {
		sw := &timedSwitch{Switch: switches.NewESwitch(), tr: tr}
		agent, err := openflow.NewAgent(sw, placed[i])
		if err != nil {
			r.close()
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			r.close()
			return nil, err
		}
		r.sws = append(r.sws, sw)
		r.lns = append(r.lns, ln)
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			for {
				c, err := ln.Accept()
				if err != nil {
					return
				}
				r.wg.Add(1)
				go func() {
					defer r.wg.Done()
					_ = agent.Serve(ctx, c) // ends when the session or the rig closes
				}()
			}
		}()
		addr := ln.Addr().String()
		specs[i] = fabric.MemberSpec{Name: fmt.Sprintf("sw%d", i), Dial: func() (net.Conn, error) {
			c, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			return &countingConn{Conn: c, tr: tr, bytes: &r.bytes}, nil
		}}
	}
	r.f, err = fabric.New(src, specs, fabric.Config{
		Mode:            fabric.Replicate,
		RPCTimeout:      time.Second,
		Seed:            seed,
		SemanticCommute: true,
	})
	if err != nil {
		r.close()
		return nil, err
	}
	r.initial = r.f.Epoch()
	for _, sw := range r.sws {
		sw.takeInstalls()
	}
	return r, nil
}

// close stops the fabric, its agents and their listeners, and waits for
// every goroutine the rig started.
func (r *fabricRig) close() {
	if r.f != nil {
		r.f.Close()
	}
	r.cancel()
	for _, ln := range r.lns {
		ln.Close()
	}
	r.wg.Wait()
}

// epochLog is one committed control step as the traced run replays it.
type epochLog struct {
	batches [][]openflow.FlowMod
	race    bool
}

// control drives the update schedule: back-to-back port-change epochs
// that toggle each service between two ports the churn trace addresses,
// with every raceEvery-th step a racing pair plus its clean-up epoch.
type control struct {
	rig   *fabricRig
	g     *usecases.GwLB
	base  []uint16
	alt   []uint16
	tr    *tracer
	steps int

	// Samples, indexed by whether tracing was on when taken.
	commitMs [2][]float64 // single-batch epochs
	raceMs   [2][]float64 // racing rounds (ApplyConcurrent)
	modsPerS [2][]float64 // one per round
	mods     int
	// epochs and races count what the schedule issued; the fabric must
	// report exactly these.
	epochs int
	races  int
	// keepLog records every committed step for the traced run's replays.
	keepLog bool
	log     []epochLog
}

func newControl(rig *fabricRig, g *usecases.GwLB, alt []uint16, tr *tracer) *control {
	base := make([]uint16, len(g.Services))
	for i, s := range g.Services {
		base[i] = s.Port
	}
	return &control{rig: rig, g: g, base: base, alt: alt, tr: tr}
}

// toggle plans the step's port change, round robin over the services,
// and applies it to the service graph.
func (c *control) toggle() (int, *controlplane.Plan, error) {
	svc := c.steps % len(c.g.Services)
	port := c.alt[svc]
	if c.g.Services[svc].Port == port {
		port = c.base[svc]
	}
	plan, err := controlplane.PlanPortChange(c.g, usecases.RepGoto, svc, port)
	if err != nil {
		return 0, nil, err
	}
	c.g.Services[svc].Port = port
	return svc, plan, nil
}

// step runs one control step and returns the flow-mods it committed and
// how long the control plane worked on it.
func (c *control) step(ctx context.Context, op int64) (int, time.Duration, error) {
	svc, plan, err := c.toggle()
	c.steps++
	if err != nil {
		return 0, 0, err
	}
	if c.steps%raceEvery != 0 {
		d, err := c.apply(ctx, op, plan.Mods)
		return len(plan.Mods), d, err
	}
	catch, err := controlplane.PlanCatchAll(c.g, usecases.RepGoto, svc)
	if err != nil {
		return 0, 0, err
	}
	batches := [][]openflow.FlowMod{plan.Mods, catch.Mods}
	sp := c.tr.begin("fabric.race", noSpan, op)
	c.tr.epoch.Store(sp)
	start := time.Now()
	epochs, conflicts, err := c.rig.f.ApplyConcurrent(ctx, batches)
	d := time.Since(start)
	c.tr.epoch.Store(noSpan)
	c.tr.end(sp)
	c.races++
	c.epochs++
	if err != nil {
		return 0, d, fmt.Errorf("racing round: %w", err)
	}
	if len(epochs) != 1 || conflicts != 0 {
		return 0, d, fmt.Errorf("racing round took %d epochs with %d conflicts, want 1 and 0", len(epochs), conflicts)
	}
	on := b2i(c.tr.active())
	c.raceMs[on] = append(c.raceMs[on], float64(d.Nanoseconds())/1e6)
	if c.keepLog {
		c.log = append(c.log, epochLog{batches: batches, race: true})
	}
	// The catch-all is retracted so the service graph alone stays the
	// desired state.
	drop := make([]openflow.FlowMod, len(catch.Mods))
	for i, m := range catch.Mods {
		drop[i] = openflow.FlowMod{Command: openflow.FlowDelete, TableID: m.TableID, Match: m.Match}
	}
	d2, err := c.apply(ctx, op, drop)
	return len(plan.Mods) + len(catch.Mods) + len(drop), d + d2, err
}

// apply commits one single-batch epoch.
func (c *control) apply(ctx context.Context, op int64, mods []openflow.FlowMod) (time.Duration, error) {
	sp := c.tr.begin("fabric.epoch", noSpan, op)
	c.tr.epoch.Store(sp)
	start := time.Now()
	_, err := c.rig.f.Apply(ctx, mods)
	d := time.Since(start)
	c.tr.epoch.Store(noSpan)
	c.tr.end(sp)
	c.epochs++
	if err != nil {
		return d, fmt.Errorf("epoch: %w", err)
	}
	on := b2i(c.tr.active())
	c.commitMs[on] = append(c.commitMs[on], float64(d.Nanoseconds())/1e6)
	if c.keepLog {
		c.log = append(c.log, epochLog{batches: [][]openflow.FlowMod{mods}})
	}
	return d, nil
}

// round runs n control steps and records the round's commit rate. It
// returns the number of failed steps.
func (c *control) round(ctx context.Context, n int, op *int64) int {
	failed, mods := 0, 0
	var busy time.Duration
	for i := 0; i < n; i++ {
		*op++
		m, d, err := c.step(ctx, *op)
		busy += d
		if err != nil {
			failed++
			logf("control step %d: %v", *op, err)
			continue
		}
		mods += m
	}
	c.mods += mods
	if busy > 0 {
		on := b2i(c.tr.active())
		c.modsPerS[on] = append(c.modsPerS[on], float64(mods)/busy.Seconds())
	}
	return failed
}

// controlOutcome is what the fabric reports at the end of a run, set
// against what the schedule issued.
type controlOutcome struct {
	wantEpochs, epochs, committed uint64
	wantFalse, falseConflicts     uint64
	converged                     bool
	divergences                   int
	detail                        string
}

// problems lists every way the outcome departs from the schedule. The
// racing pairs are confluent by construction (the most specific rule
// wins), so each must count as exactly one refuted conflict.
func (o controlOutcome) problems() []string {
	var out []string
	if o.epochs != o.wantEpochs {
		out = append(out, fmt.Sprintf("fabric issued %d epochs, schedule %d", o.epochs, o.wantEpochs))
	}
	if o.committed != o.wantEpochs {
		out = append(out, fmt.Sprintf("fabric committed %d epochs, schedule %d", o.committed, o.wantEpochs))
	}
	if o.falseConflicts != o.wantFalse {
		out = append(out, fmt.Sprintf("%d false conflicts, %d racing rounds planted", o.falseConflicts, o.wantFalse))
	}
	if !o.converged {
		out = append(out, fmt.Sprintf("fabric diverged from the service-graph oracle (%d packets): %s", o.divergences, o.detail))
	}
	return out
}

// finish checks convergence against an oracle rebuilt from the updated
// service graph, and collects the outcome and the check's duration.
func (c *control) finish(ctx context.Context, pkts []*packet.Packet) (controlOutcome, time.Duration, error) {
	oracle, err := c.g.Build(usecases.RepGoto)
	if err != nil {
		return controlOutcome{}, 0, err
	}
	start := time.Now()
	rep, err := c.rig.f.CheckConvergence(ctx, oracle, pkts)
	d := time.Since(start)
	if err != nil {
		return controlOutcome{}, d, fmt.Errorf("convergence check: %w", err)
	}
	f := c.rig.f
	return controlOutcome{
		wantEpochs:     uint64(c.epochs),
		epochs:         f.Epoch() - c.rig.initial,
		committed:      f.CommittedEpoch() - c.rig.initial,
		wantFalse:      uint64(c.races),
		falseConflicts: f.Stats().Counters["commute_false_conflicts"],
		converged:      rep.OK(),
		divergences:    rep.Divergences,
		detail:         rep.String(),
	}, d, nil
}
