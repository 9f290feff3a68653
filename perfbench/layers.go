package main

import (
	"fmt"
	"runtime"
	"time"

	"manorm/internal/classifier"
	"manorm/internal/confluence"
	"manorm/internal/core"
	"manorm/internal/dataplane"
	"manorm/internal/fabric"
	"manorm/internal/fdd"
	"manorm/internal/mat"
	"manorm/internal/openflow"
	"manorm/internal/packet"
	"manorm/internal/usecases"
)

// The traced run times each layer from outside: where the benchmark owns
// the boundary (a forwarding slice, a control step, an agent's Install, a
// control-channel write) it spans the call in place; elsewhere it replays
// the calls into the layer's public functions on the run's own inputs.

const (
	// minReplay is how long each data-plane replay repeats its input.
	minReplay = 150 * time.Millisecond
	// maxSamples caps the expensive control-plane replays (confluence
	// checks, fingerprints), spread evenly over the run's steps.
	maxSamples = 48
)

// useCases are the programs and traces a workload forwards.
func useCases(w workload, in *inputs) []*useCase {
	if w.overlay {
		return in.overlay
	}
	return []*useCase{{schema: "", build: in.g.Build, trace: in.gwTrace}}
}

// layerMetrics computes every per-layer metric of a traced run.
// drops are the typed drops the switches counted per pass over the traces
// (switchDrops).
func layerMetrics(w workload, in *inputs, r *rig, ctl *control, tr *tracer, converge time.Duration, drops map[packet.DecodeReason]float64) (map[string]metric, error) {
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	cases := useCases(w, in)

	decodeNs, err := decodeLayer(cases)
	if err != nil {
		return nil, err
	}
	put("packet.decode_ns", decodeNs, "ns")
	put("packet.drops.truncated", drops[packet.ReasonTruncated], "count")
	put("packet.drops.bad_header", drops[packet.ReasonBadHeader], "count")

	lookups, err := classifierLayer(cases)
	if err != nil {
		return nil, err
	}
	for _, t := range []classifier.Template{classifier.ForceTernary, classifier.ForceExact, classifier.ForceLPM, classifier.ForceTupleSpace, classifier.ForceFDD} {
		ns, ok := lookups[t]
		if !ok {
			return nil, fmt.Errorf("no table of %s compiles with the %s template", w.name, t)
		}
		put("classifier.lookup_ns."+t.String(), ns, "ns")
	}

	processNs := map[usecases.Representation]float64{}
	for _, rep := range []usecases.Representation{usecases.RepUniversal, usecases.RepGoto, usecases.RepFused} {
		ns, tables, err := dataplaneLayer(cases, rep)
		if err != nil {
			return nil, err
		}
		processNs[rep] = ns
		put("dataplane.process_ns."+string(rep), ns, "ns")
		put("dataplane.tables_per_pkt."+string(rep), tables, "count")
	}

	var fwdOverhead float64
	for _, p := range r.pairs {
		name := p.spec.name()
		frameNs := 1e3 / quantile(p.mpps[0], 0.5)
		put("switches.frame_ns."+name, frameNs, "ns")
		put("switches.residual_ns."+name, frameNs-decodeNs-processNs[p.spec.rep], "ns")
		allocs, err := allocsPerFrame(p)
		if err != nil {
			return nil, err
		}
		put("switches.allocs_per_pkt."+name, allocs, "count")
		fwdOverhead += (1e3/quantile(p.mpps[1], 0.5) - frameNs) / frameNs * 100 / float64(len(r.pairs))
	}
	var emc, mega, slow float64
	for _, l := range r.pairs[0].lanes { // the ovs.universal pair
		c := l.sw.Stats().Counters
		emc += float64(c["emc_hits"])
		mega += float64(c["megaflow_hits"])
		slow += float64(c["slow_misses"])
	}
	total := emc + mega + slow
	put("switches.ovs.emc_share", emc/total, "ratio")
	put("switches.ovs.megaflow_share", mega/total, "ratio")
	put("switches.ovs.slowpath_share", slow/total, "ratio")

	var installs []float64
	for _, sw := range r.fab.sws {
		installs = append(installs, sw.takeInstalls()...)
	}
	installUs := quantile(installs, 0.5) / 1e3
	put("switches.install_ms.eswitch", installUs/1e3, "ms")

	cl, err := controlLayer(ctl, in)
	if err != nil {
		return nil, err
	}
	put("openflow.encode_us", cl.encode, "us")
	put("openflow.decode_us", cl.decode, "us")
	put("openflow.apply_us", cl.apply, "us")
	put("mat.validate_us", cl.validate, "us")
	put("openflow.bytes_per_epoch", float64(r.fab.bytes.Load())/float64(ctl.epochs), "B")
	// On fault-free loopback these are expected to stay 0; a resend or a
	// reconnect shows as extra bytes per epoch and a longer commit.
	var resent, reconnects float64
	for _, mb := range r.fab.f.Members() {
		c := mb.Client().Stats().Counters
		resent += float64(c["mods_resent"])
		reconnects += float64(c["reconnects"])
	}
	put("openflow.resends", resent, "count")
	put("openflow.reconnects", reconnects, "count")
	put("fabric.commute_us", cl.commute, "us")
	put("confluence.check_ms", cl.check, "ms")
	put("confluence.orderings", cl.orderings, "count")
	put("confluence.witness_packets", cl.witness, "count")
	put("confluence.fingerprint_ms", cl.fingerprint, "ms")
	put("core.denormalize_ms", cl.denormalize, "ms")
	put("core.normalize_ms", cl.normalize, "ms")
	put("fdd.fuse_ms", cl.fuse, "ms")
	put("fabric.converge_ms", float64(converge.Nanoseconds())/1e6, "ms")

	// The ledger: along an epoch's blocking path the layers above account
	// for part of the commit; the residual is the rest (fabric
	// pre-validation, scheduling, loopback TCP and barrier waits).
	self := tr.selfTimes()
	put("fabric.epoch_self_us", quantile(self["fabric.epoch"], 0.5)/1e3, "us")
	commitUs := quantile(ctl.commitMs[0], 0.5) * 1e3
	epochLayers := cl.encode + cl.decode + cl.apply + cl.validate + installUs
	put("ledger.commit_residual_us", commitUs-epochLayers, "us")
	raceUs := quantile(ctl.raceMs[0], 0.5) * 1e3
	raceLayers := cl.commute + cl.check*1e3 + cl.raceEncode + cl.raceDecode + cl.raceApply + cl.raceValidate + installUs
	put("ledger.race_residual_us", raceUs-raceLayers, "us")
	put("trace.overhead_pct.fwd", fwdOverhead, "%")
	put("trace.overhead_pct.commit", (quantile(ctl.commitMs[1], 0.5)*1e3-commitUs)/commitUs*100, "%")
	return m, nil
}

// decodeTrace decodes every frame of the use case's trace once — the
// hand-written codec on the default schema, the compiled parse graph
// otherwise — and returns the time the decoding took.
func decodeTrace(c *useCase) (time.Duration, error) {
	if c.schema == "" {
		var pkt packet.Packet
		start := time.Now()
		for _, f := range c.trace.frames {
			_ = pkt.ParseInto(f) // malformed frames are timed like the rest
		}
		return time.Since(start), nil
	}
	dec, err := packet.BuiltinDecoder(c.schema)
	if err != nil {
		return 0, err
	}
	view := dec.NewView()
	start := time.Now()
	for _, f := range c.trace.frames {
		_ = dec.ParseInto(view, f)
	}
	return time.Since(start), nil
}

// decodeLayer replays frame decode over the traces and returns ns per
// frame.
func decodeLayer(cases []*useCase) (float64, error) {
	var elapsed time.Duration
	frames := 0
	for elapsed < minReplay {
		for _, c := range cases {
			d, err := decodeTrace(c)
			if err != nil {
				return 0, err
			}
			elapsed += d
			frames += len(c.trace.frames)
		}
	}
	return float64(elapsed.Nanoseconds()) / float64(frames), nil
}

// keysFor builds the lookup keys of a table's match columns from the
// trace's sampled records, flattened row by row.
func keysFor(t *mat.Table, recs []mat.Record) ([]uint64, int) {
	var cols []string
	for _, a := range t.Schema {
		if a.Kind == mat.Field {
			cols = append(cols, a.Name)
		}
	}
	var keys []uint64
	for _, r := range recs {
		if r == nil {
			continue
		}
		for _, c := range cols {
			keys = append(keys, r[c])
		}
	}
	return keys, len(cols)
}

// classifierLayer replays classifier.Compile(...).Lookup per template on
// the stages' keys: ternary on the universal table, exact, lpm and tss on
// the goto stages that admit them, fdd on the fused rule list. It returns
// ns per lookup by template.
func classifierLayer(cases []*useCase) (map[classifier.Template]float64, error) {
	type probe struct {
		cls  classifier.Classifier
		keys []uint64
		cols int
	}
	probes := map[classifier.Template][]probe{}
	add := func(t *mat.Table, tmpl classifier.Template, recs []mat.Record) {
		cls, err := classifier.Compile(t, tmpl)
		if err != nil {
			return // the table's shape does not admit the template
		}
		keys, cols := keysFor(t, recs)
		probes[tmpl] = append(probes[tmpl], probe{cls, keys, cols})
	}
	for _, c := range cases {
		u, err := c.build(usecases.RepUniversal)
		if err != nil {
			return nil, err
		}
		add(u.Stages[0].Table, classifier.ForceTernary, c.trace.sample)
		g, err := c.build(usecases.RepGoto)
		if err != nil {
			return nil, err
		}
		for _, st := range g.Stages {
			for _, tmpl := range []classifier.Template{classifier.ForceExact, classifier.ForceLPM, classifier.ForceTupleSpace} {
				add(st.Table, tmpl, c.trace.sample)
			}
		}
		prog, err := fdd.Fuse(g)
		if err != nil {
			return nil, err
		}
		add(prog.MatchTable(), classifier.ForceFDD, c.trace.sample)
	}
	out := map[classifier.Template]float64{}
	for tmpl, ps := range probes {
		var elapsed time.Duration
		n := 0
		for elapsed < minReplay/3 {
			for _, p := range ps {
				start := time.Now()
				for off := 0; off < len(p.keys); off += p.cols {
					p.cls.Lookup(p.keys[off : off+p.cols])
				}
				elapsed += time.Since(start)
				n += len(p.keys) / p.cols
			}
		}
		out[tmpl] = float64(elapsed.Nanoseconds()) / float64(n)
	}
	return out, nil
}

// dataplaneLayer replays dataplane.Pipeline.Process / ProcessView on
// pre-decoded input, compiled as ESwitch compiles it. It returns ns per
// packet and tables traversed per packet.
func dataplaneLayer(cases []*useCase, rep usecases.Representation) (float64, float64, error) {
	var elapsed time.Duration
	var n, tables int
	for elapsed < minReplay {
		for _, c := range cases {
			p, err := c.build(rep)
			if err != nil {
				return 0, 0, err
			}
			var opts []dataplane.Option
			var dec *packet.Decoder
			if c.schema != "" {
				if dec, err = packet.BuiltinDecoder(c.schema); err != nil {
					return 0, 0, err
				}
				opts = append(opts, dataplane.WithSchema(dec.Schema()))
			}
			dp, err := dataplane.Compile(p, dataplane.AutoTemplates, opts...)
			if err != nil {
				return 0, 0, err
			}
			ctx := dp.NewCtx()
			if dec != nil {
				var views []*packet.FieldView
				for i, f := range c.trace.frames {
					if c.trace.refs[i].bad != 0 {
						continue
					}
					v := dec.NewView()
					if err := dec.ParseInto(v, f); err != nil {
						return 0, 0, err
					}
					views = append(views, v)
				}
				start := time.Now()
				for _, v := range views {
					verdict, err := dp.ProcessView(v, ctx)
					if err != nil {
						return 0, 0, err
					}
					tables += verdict.Tables
				}
				elapsed += time.Since(start)
				n += len(views)
				continue
			}
			pkts := make([]packet.Packet, 0, len(c.trace.frames))
			for i, f := range c.trace.frames {
				if c.trace.refs[i].bad != 0 {
					continue
				}
				pkts = append(pkts, packet.Packet{})
				if err := pkts[len(pkts)-1].ParseInto(f); err != nil {
					return 0, 0, err
				}
			}
			start := time.Now()
			for i := range pkts {
				verdict, err := dp.Process(&pkts[i], ctx)
				if err != nil {
					return 0, 0, err
				}
				tables += verdict.Tables
			}
			elapsed += time.Since(start)
			n += len(pkts)
		}
	}
	return float64(elapsed.Nanoseconds()) / float64(n), float64(tables) / float64(n), nil
}

// allocsPerFrame forwards one more slice per lane of the pair and counts
// the heap allocations it made.
func allocsPerFrame(p *pair) (float64, error) {
	var before, after runtime.MemStats
	frames := 0
	runtime.ReadMemStats(&before)
	for _, l := range p.lanes {
		if _, err := l.run(); err != nil {
			return 0, err
		}
		frames += l.slice
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(frames), nil
}

// controlLayers holds the control-plane replay medians: per-epoch
// microseconds for the codec, apply and validation (separately for racing
// epochs), and the commutation, confluence and fingerprint costs.
type controlLayers struct {
	encode, decode, apply, validate                 float64
	raceEncode, raceDecode, raceApply, raceValidate float64
	commute, check, orderings, witness              float64
	fingerprint, denormalize, normalize, fuse       float64
}

// controlLayer replays the run's committed steps, in order, through the
// public functions each epoch crosses: the flow-mod codec, the agent's
// ApplyToPipeline and commit validation, the commutation pre-check, the
// confluence oracle and the convergence fingerprint (and its steps).
func controlLayer(ctl *control, in *inputs) (*controlLayers, error) {
	state, err := in.g.Build(usecases.RepGoto)
	if err != nil {
		return nil, err
	}
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	var enc, dec, app, val [2][]float64
	var commute, check, orderings, witness, fp, den, norm, fuse []float64
	races := 0
	for _, e := range ctl.log {
		if e.race {
			races++
		}
	}
	raceStride := max(1, races/maxSamples)
	fpStride := max(1, len(ctl.log)/maxSamples)
	raceSeen := 0
	for i, e := range ctl.log {
		var mods []openflow.FlowMod
		for _, b := range e.batches {
			mods = append(mods, b...)
		}
		r := b2i(e.race)

		start := time.Now()
		frames := make([][]byte, len(mods))
		for k := range mods {
			if frames[k], err = openflow.Encode(&openflow.Message{Type: openflow.TypeFlowMod, XID: uint32(k + 1), Flow: &mods[k]}); err != nil {
				return nil, err
			}
		}
		enc[r] = append(enc[r], us(time.Since(start)))
		start = time.Now()
		for _, f := range frames {
			if _, err := openflow.Decode(f); err != nil {
				return nil, err
			}
		}
		dec[r] = append(dec[r], us(time.Since(start)))

		if e.race {
			raceSeen++
			if raceSeen%raceStride == 0 && len(check) < maxSamples {
				start = time.Now()
				fabric.BatchConflicts(e.batches[0], e.batches[1])
				commute = append(commute, us(time.Since(start)))
				start = time.Now()
				v, err := confluence.Check(state, e.batches, confluence.Options{Seed: in.seed})
				if err != nil {
					return nil, err
				}
				check = append(check, ms(time.Since(start)))
				orderings = append(orderings, float64(v.Orderings))
				witness = append(witness, float64(v.PacketsChecked))
			}
		}

		start = time.Now()
		for k := range mods {
			if err := openflow.ApplyToPipeline(state, &mods[k]); err != nil {
				return nil, fmt.Errorf("replaying epoch %d: %w", i, err)
			}
		}
		app[r] = append(app[r], us(time.Since(start)))
		start = time.Now()
		if err := state.Validate(); err != nil {
			return nil, err
		}
		for _, st := range state.Stages {
			st.Table.AmbiguousPairs()
		}
		val[r] = append(val[r], us(time.Since(start)))

		if i%fpStride == 0 && len(fp) < maxSamples {
			start = time.Now()
			if _, err := confluence.Fingerprint(state); err != nil {
				return nil, err
			}
			fp = append(fp, ms(time.Since(start)))
			start = time.Now()
			u, err := core.Denormalize(state)
			if err != nil {
				return nil, err
			}
			den = append(den, ms(time.Since(start)))
			u.SortEntries()
			start = time.Now()
			res, err := core.Normalize(u, core.Options{})
			if err != nil {
				return nil, err
			}
			norm = append(norm, ms(time.Since(start)))
			start = time.Now()
			if _, err := fdd.Fuse(res.Pipeline); err != nil {
				return nil, err
			}
			fuse = append(fuse, ms(time.Since(start)))
		}
	}
	if len(check) == 0 {
		return nil, fmt.Errorf("the run committed no racing round to replay")
	}
	med := func(xs []float64) float64 { return quantile(xs, 0.5) }
	return &controlLayers{
		encode: med(enc[0]), decode: med(dec[0]), apply: med(app[0]), validate: med(val[0]),
		raceEncode: med(enc[1]), raceDecode: med(dec[1]), raceApply: med(app[1]), raceValidate: med(val[1]),
		commute: med(commute), check: med(check), orderings: med(orderings), witness: med(witness),
		fingerprint: med(fp), denormalize: med(den), normalize: med(norm), fuse: med(fuse),
	}, nil
}
