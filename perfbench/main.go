// Command perfbench is the repository's end-to-end benchmark: raw frame →
// verdict on five (switch model, representation) pairs, and flow-mod batch
// → quorum-committed epoch on a three-member fabric over loopback TCP.
//
//	perfbench --workload fwd-gwlb --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics. With --trace 0 the metrics are the end-to-end ones;
// with --trace 1 the run also times each layer (see README.md) and writes
// its span log under .bench_build/spans.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"manorm/internal/usecases"
)

// workload is one set of inputs. Every workload runs the same operations
// (forwarding slices on the five pairs, control steps on the fabric), so
// every end-to-end metric is measured on each, under different traffic
// and contention.
type workload struct {
	name string
	// overlay forwards the vxlan/mpls/gtpu mix in schema mode instead of
	// the gateway trace.
	overlay bool
	// concurrent runs forwarding and control at once, on the two CPUs, and
	// forwards the eswitch.goto pair on fabric member 0, whose tables the
	// control plane rewrites; otherwise each round forwards, then runs its
	// control steps with the other CPU idle.
	concurrent bool
	// ctlSteps is the number of control steps per round, a multiple of
	// raceEvery so that every round holds the same operations.
	ctlSteps int
}

var workloads = []workload{
	{name: "fwd-gwlb", ctlSteps: raceEvery},
	{name: "fwd-overlay", overlay: true, ctlSteps: raceEvery},
	{name: "churn-fabric", concurrent: true, ctlSteps: 2 * raceEvery},
}

// Slice lengths in frames: one gateway slice, or one slice per overlay
// schema.
const (
	gwSlice      = 8192
	overlaySlice = 4096
	// setups is the number of times a run sets a rig up; setup_s is the
	// median.
	setups = 101
)

func main() {
	name := flag.String("workload", "", "workload: fwd-gwlb, fwd-overlay or churn-fabric")
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Float64("seconds", 10, "length of the measured loop")
	traced := flag.Int("trace", 0, "1 times each layer and reports per-layer metrics")
	spanDir := flag.String("spans", filepath.Join(".bench_build", "spans"), "directory of the traced run's span log")
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *traced)
		os.Exit(2)
	}
	res, err := run(*w, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1, *spanDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...) }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// inputs are everything generated from the seed, before any set-up. The
// service graph g is never mutated; the control plane churns a copy.
type inputs struct {
	seed    int64
	g       *usecases.GwLB
	alt     []uint16
	gwTrace *trace
	overlay []*useCase
}

// rig is one set-up of the program: the five pairs' switches and the
// fabric.
type rig struct {
	pairs []*pair
	fab   *fabricRig
}

func (r *rig) close() {
	if r.fab != nil {
		r.fab.close()
	}
}

// buildRig sets the program up: the fabric, then every pair's switches,
// programmed. This is the work setup_s times.
func buildRig(w workload, in *inputs, tr *tracer) (*rig, error) {
	g := in.g
	fab, err := newFabricRig(g, in.seed, tr)
	if err != nil {
		return nil, err
	}
	r := &rig{fab: fab}
	ports := backendPorts(g)
	for _, spec := range pairSpecs {
		p := &pair{spec: spec}
		switch {
		case w.overlay:
			for _, c := range in.overlay {
				sw, err := newSwitch(spec, c.schema, c.build)
				if err != nil {
					r.close()
					return nil, err
				}
				p.lanes = append(p.lanes, newLane(sw, c.trace, overlaySlice))
			}
		case w.concurrent && spec == (pairSpec{"eswitch", "goto"}):
			l := newLane(fab.sws[0], in.gwTrace, gwSlice)
			l.live, l.services = true, ports
			p.lanes = append(p.lanes, l)
		default:
			sw, err := newSwitch(spec, "", g.Build)
			if err != nil {
				r.close()
				return nil, err
			}
			p.lanes = append(p.lanes, newLane(sw, in.gwTrace, gwSlice))
		}
		r.pairs = append(r.pairs, p)
	}
	return r, nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// run is one benchmark run: generate inputs, then measure on them.
func run(w workload, seed int64, length time.Duration, traced bool, spanDir string) (*result, error) {
	in, err := newInputs(w, seed)
	if err != nil {
		return nil, err
	}
	return measure(w, in, length, traced, spanDir)
}

// newInputs generates every input of a workload from the seed.
func newInputs(w workload, seed int64) (*inputs, error) {
	in := &inputs{seed: seed}
	in.g, in.alt = gateway(seed)
	var err error
	if in.gwTrace, err = gatewayTrace(in.g, in.alt, w.concurrent, seed+1); err != nil {
		return nil, err
	}
	if w.overlay {
		if in.overlay, err = overlayCases(seed + 2); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// timedSetUp collects the heap, builds a rig and appends the time the
// build took to setupS. Starting from a collected heap keeps a previous
// rig's garbage from being charged to this set-up.
func timedSetUp(w workload, in *inputs, tr *tracer, setupS *[]float64) (*rig, error) {
	runtime.GC()
	start := time.Now()
	r, err := buildRig(w, in, tr)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	*setupS = append(*setupS, time.Since(start).Seconds())
	return r, nil
}

// measure sets the program up, warms it, checks its typed drops, then runs
// whole forwarding and control rounds until the time is up, checking every
// output. Between rounds it sets up further rigs, spread evenly over the
// run, for setup_s.
func measure(w workload, in *inputs, length time.Duration, traced bool, spanDir string) (*result, error) {
	seed := in.seed
	tr := newTracer()
	var setupS []float64
	r, err := timedSetUp(w, in, tr, &setupS)
	if err != nil {
		return nil, err
	}
	defer r.close()
	for _, p := range r.pairs {
		for _, l := range p.lanes {
			if err := l.warm(); err != nil {
				return nil, fmt.Errorf("warm-up %s: %w", p.spec.name(), err)
			}
		}
	}
	drops, dropProbs, err := switchDrops(useCases(w, in))
	if err != nil {
		return nil, err
	}

	// The control plane churns the rig's own copy of the service graph.
	cg, _ := gateway(seed)
	ctl := newControl(r.fab, cg, in.alt, tr)
	ctl.keepLog = traced
	ctx := context.Background()
	res := &result{}
	start := time.Now()
	deadline := start.Add(length)
	// setUp times one more set-up of a separate rig, with a tracer that is
	// never on, and tears the rig down, once the run has reached the next
	// point of an even schedule of setups set-ups. Spread so, set-ups meet
	// the same host as the rest of the run: the median of set-ups bunched
	// at the start spread by up to 0.22 between runs, against 0.08 here.
	setUp := func() error {
		if len(setupS) >= setups || time.Since(start) < time.Duration(len(setupS))*length/setups {
			return nil
		}
		extra, err := timedSetUp(w, in, newTracer(), &setupS)
		if err != nil {
			return err
		}
		extra.close()
		return nil
	}
	// fwdRound forwards one slice per pair, in an order that rotates each
	// round, and returns the number of failed slices.
	fwdRound := func(round int) (int, error) {
		// A traced run alternates traced and untraced rounds; the gap
		// between the two is the tracing overhead.
		tr.on.Store(traced && round%2 == 0)
		base := int64(round) << 16
		failed := 0
		for i := range r.pairs {
			p := r.pairs[(round+i)%len(r.pairs)]
			bad, err := p.slice(tr, base+int64(i))
			if err != nil {
				return 0, fmt.Errorf("%s: %w", p.spec.name(), err)
			}
			if bad > 0 {
				logf("%s: %d wrong verdicts in slice %d", p.spec.name(), bad, base+int64(i))
				failed++
			}
		}
		return failed, nil
	}
	ctlRound := func(round int) int {
		op := int64(round)<<16 + 1<<15
		return ctl.round(ctx, w.ctlSteps, &op)
	}
	var fwdErr error
	if w.concurrent {
		// Forwarding and control each run whole rounds back to back until
		// the deadline, so every slice overlaps control work and every
		// epoch overlaps forwarding.
		var wg sync.WaitGroup
		ctlRounds, ctlFailed := 0, 0
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ; ctlRounds == 0 || time.Now().Before(deadline); ctlRounds++ {
				ctlFailed += ctlRound(ctlRounds)
			}
		}()
		for round := 0; round == 0 || time.Now().Before(deadline); round++ {
			failed, err := fwdRound(round)
			if err != nil {
				fwdErr = err
				break
			}
			res.Attempted += len(r.pairs)
			res.Failed += failed
			if fwdErr = setUp(); fwdErr != nil {
				break
			}
		}
		wg.Wait()
		res.Attempted += ctlRounds * w.ctlSteps
		res.Failed += ctlFailed
	} else {
		for round := 0; round == 0 || time.Now().Before(deadline); round++ {
			failed, err := fwdRound(round)
			if err != nil {
				fwdErr = err
				break
			}
			res.Attempted += len(r.pairs) + w.ctlSteps
			res.Failed += failed + ctlRound(round)
			if fwdErr = setUp(); fwdErr != nil {
				break
			}
		}
	}
	if fwdErr != nil {
		return nil, fwdErr
	}
	tr.on.Store(false)

	// One closing operation: the fabric must have committed exactly the
	// schedule and converged on the service graph's oracle.
	res.Attempted++
	outcome, convergeD, err := ctl.finish(ctx, in.gwTrace.probe)
	if err != nil {
		return nil, err
	}
	if probs := append(outcome.problems(), dropProbs...); len(probs) > 0 {
		for _, p := range probs {
			logf("%s", p)
		}
		res.Failed++
	}
	res.Correct = res.Failed == 0

	if traced {
		if res.Metrics, err = layerMetrics(w, in, r, ctl, tr, convergeD, drops); err != nil {
			return nil, err
		}
		path := filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))
		if err := tr.write(path); err != nil {
			return nil, err
		}
	} else {
		res.Metrics = endToEnd(r, ctl, setupS)
	}
	return res, nil
}

// endToEnd computes the metrics a user of the program sees.
func endToEnd(r *rig, ctl *control, setupS []float64) map[string]metric {
	m := map[string]metric{
		"setup_s":            {quantile(setupS, 0.5), "s"},
		"commit_ms.p50":      {quantile(ctl.commitMs[0], 0.5), "ms"},
		"race_commit_ms.p50": {quantile(ctl.raceMs[0], 0.5), "ms"},
		"mods_per_s":         {quantile(ctl.modsPerS[0], 0.5), "1/s"},
	}
	for _, p := range r.pairs {
		m["fwd_mpps."+p.spec.name()] = metric{quantile(p.mpps[0], 0.5), "Mpps"}
	}
	return m
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
