package main

import (
	"fmt"
	"time"

	"manorm/internal/dataplane"
	"manorm/internal/mat"
	"manorm/internal/packet"
	"manorm/internal/switches"
	"manorm/internal/telemetry"
	"manorm/internal/usecases"
)

// pairSpec is one (switch model, representation) forwarding pair. NoviFlow
// is absent: its forwarding rate is an analytic constant, not a
// measurement.
type pairSpec struct {
	sw  string
	rep usecases.Representation
}

func (p pairSpec) name() string { return p.sw + "." + string(p.rep) }

var pairSpecs = []pairSpec{
	{"ovs", usecases.RepUniversal},
	{"eswitch", usecases.RepUniversal},
	{"eswitch", usecases.RepGoto},
	{"eswitch", usecases.RepFused},
	{"lagopus", usecases.RepGoto},
}

// batchLen is the frame-batch size handed to ProcessBatch, and every
// slice length is a multiple of it.
const batchLen = 64

// lane is one pair's forwarding context on one trace: a dedicated switch
// worker and a cursor that walks the cyclic trace slice by slice.
type lane struct {
	sw     switches.Switch
	w      switches.Worker
	tr     *trace
	slice  int
	cursor int
	out    []dataplane.Verdict
	// live marks a switch whose tables the control plane rewrites while
	// it forwards: its verdicts are checked against the service graph
	// rather than against one fixed program.
	live     bool
	services []map[uint16]bool
}

// pair holds one pair's lanes (one per trace) and its slice samples.
type pair struct {
	spec  pairSpec
	lanes []*lane
	// mpps holds one rate per slice, indexed by whether tracing was on.
	mpps [2][]float64
}

// newSwitch builds and programs one switch for a lane. Construction and
// Install are the program's set-up work and are timed by the caller.
func newSwitch(spec pairSpec, schema string, build func(usecases.Representation) (*mat.Pipeline, error), opts ...switches.Option) (switches.Switch, error) {
	if schema != "" {
		dec, err := packet.BuiltinDecoder(schema)
		if err != nil {
			return nil, err
		}
		opts = append(opts, switches.WithSchema(dec))
	}
	sw, err := switches.New(spec.sw, opts...)
	if err != nil {
		return nil, err
	}
	p, err := build(spec.rep)
	if err != nil {
		return nil, err
	}
	if err := sw.Install(p); err != nil {
		return nil, fmt.Errorf("%s install: %w", spec.name(), err)
	}
	return sw, nil
}

func newLane(sw switches.Switch, tr *trace, slice int) *lane {
	return &lane{sw: sw, w: sw.NewWorker(), tr: tr, slice: slice, out: make([]dataplane.Verdict, slice)}
}

// warm forwards the whole trace once, untimed: it fills caches and faults
// the datapath in before any slice is measured.
func (l *lane) warm() error {
	out := make([]dataplane.Verdict, batchLen)
	for off := 0; off < len(l.tr.frames); off += batchLen {
		if err := l.w.ProcessBatch(l.tr.frames[off:off+batchLen], out); err != nil {
			return err
		}
	}
	return nil
}

// run forwards the lane's next slice and returns its duration. Verdicts
// land in l.out for check; the cursor advances afterwards.
func (l *lane) run() (time.Duration, error) {
	frames := l.tr.frames
	start := time.Now()
	for off := 0; off < l.slice; off += batchLen {
		at := (l.cursor + off) % len(frames)
		if err := l.w.ProcessBatch(frames[at:at+batchLen], l.out[off:off+batchLen]); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// minLiveShare is the least share of service-addressed frames a live
// switch must forward in one slice. About half the service hits address a
// service's current port, and a step moves one service of 20, so a switch
// that forwards well below this has lost installed rules.
const minLiveShare = 0.25

// check compares the slice just run with the references and advances the
// cursor. It returns the number of wrong verdicts, plus one if a live
// switch forwarded too few of the service-addressed frames.
func (l *lane) check() int {
	bad := checkVerdicts(l.out, l.tr.refs, l.cursor, l.live, l.services)
	if l.live {
		if share := forwardedShare(l.out, l.tr.refs, l.cursor); share < minLiveShare {
			logf("live switch forwarded %.3f of service-addressed frames, want at least %v", share, minLiveShare)
			bad++
		}
	}
	l.cursor = (l.cursor + l.slice) % len(l.tr.frames)
	return bad
}

// checkVerdicts counts verdicts that disagree with the references of the
// frames at trace positions from, from+1, ... (cyclic). On a static switch
// each verdict must equal the relational reference exactly. On a live
// switch (tables rewritten concurrently) a frame addressed to a service
// must drop or leave on one of that service's backend ports, and every
// other frame must drop.
func checkVerdicts(out []dataplane.Verdict, refs []ref, from int, live bool, svcPorts []map[uint16]bool) int {
	bad := 0
	for i, v := range out {
		r := refs[(from+i)%len(refs)]
		switch {
		case !live:
			if v.Drop != r.drop || (!r.drop && v.Port != r.port) {
				bad++
			}
		case r.svc < 0:
			if !v.Drop {
				bad++
			}
		case !v.Drop && !svcPorts[r.svc][v.Port]:
			bad++
		}
	}
	return bad
}

// forwardedShare is the share of service-addressed frames, among those at
// trace positions from, from+1, ... (cyclic), that were not dropped.
func forwardedShare(out []dataplane.Verdict, refs []ref, from int) float64 {
	addressed, forwarded := 0, 0
	for i, v := range out {
		if refs[(from+i)%len(refs)].svc < 0 {
			continue
		}
		addressed++
		if !v.Drop {
			forwarded++
		}
	}
	if addressed == 0 {
		return 1
	}
	return float64(forwarded) / float64(addressed)
}

// backendPorts indexes each gateway service's backend ports.
func backendPorts(g *usecases.GwLB) []map[uint16]bool {
	out := make([]map[uint16]bool, len(g.Services))
	for i, s := range g.Services {
		out[i] = map[uint16]bool{}
		for _, b := range s.Backends {
			out[i][b.Out] = true
		}
	}
	return out
}

// slice forwards one slice on every lane of the pair, records the pair's
// rate over all of them, and returns the number of wrong verdicts.
func (p *pair) slice(tr *tracer, op int64) (int, error) {
	sp := tr.begin("switches.slice."+p.spec.name(), noSpan, op)
	var total time.Duration
	frames := 0
	for _, l := range p.lanes {
		d, err := l.run()
		if err != nil {
			return 0, err
		}
		total += d
		frames += l.slice
	}
	on := b2i(tr.active())
	tr.end(sp)
	bad := 0
	for _, l := range p.lanes {
		bad += l.check()
	}
	p.mpps[on] = append(p.mpps[on], float64(frames)*1e3/float64(total.Nanoseconds()))
	return bad, nil
}

// switchDrops forwards each trace once, untimed, through a fresh switch
// per pair built with a telemetry registry, and compares the typed drops
// the switches counted on their forwarding path (ingest.drops.*) with the
// malformations injected. It returns each reason's count per pass over the
// traces, averaged over the pairs, and the mismatches.
func switchDrops(cases []*useCase) (map[packet.DecodeReason]float64, []string, error) {
	counters := map[packet.DecodeReason]string{
		packet.ReasonTruncated: "ingest.drops.truncated",
		packet.ReasonBadHeader: "ingest.drops.bad_header",
	}
	mean := map[packet.DecodeReason]float64{}
	var probs []string
	for _, spec := range pairSpecs {
		for _, c := range cases {
			reg := telemetry.NewRegistry()
			sw, err := newSwitch(spec, c.schema, c.build, switches.WithTelemetry(reg))
			if err != nil {
				return nil, nil, err
			}
			if err := newLane(sw, c.trace, 0).warm(); err != nil {
				return nil, nil, fmt.Errorf("%s drop check: %w", spec.name(), err)
			}
			for reason, name := range counters {
				got := reg.Counter(name).Load()
				if want := c.trace.injected[reason]; got != uint64(want) {
					probs = append(probs, fmt.Sprintf("%s on the %s trace: %d %s drops, %d injected",
						spec.name(), schemaName(c.schema), got, reason, want))
				}
				mean[reason] += float64(got) / float64(len(pairSpecs))
			}
		}
	}
	return mean, probs, nil
}

func schemaName(s string) string {
	if s == "" {
		return packet.SchemaDefault
	}
	return s
}
