package main

import (
	"fmt"
	"math/rand"

	"manorm/internal/mat"
	"manorm/internal/packet"
	"manorm/internal/usecases"
)

// Trace make-up. The gateway trace holds more distinct flows than one OVS
// EMC shard (2^15 entries), so OVS serves the overflow from megaflow.
const (
	gwFlows        = 1 << 16
	overlayFlows   = 1 << 13
	missShare      = 0.02
	malformedShare = 0.01
	services       = 20
	backends       = 8
	// altPortBase numbers each service's second port: the churn schedule
	// toggles a service between its drawn port and altPortBase+index, and
	// the churn trace addresses both.
	altPortBase = 10000
)

// ref is the expected outcome of one frame, computed from the relational
// semantics of the use case's universal table (mat.Pipeline.Eval on the
// record the frame was built from), never from a switch model.
type ref struct {
	drop bool
	port uint16
	// svc is the gateway service the frame addresses, or -1 (unknown VIP,
	// overlay frame or malformed frame).
	svc int
	// bad is the malformation injected into the frame, if any.
	bad packet.DecodeReason
}

// trace is one pre-generated cyclic frame trace with its references.
// Frames live in one contiguous buffer, as in a receive ring, and the
// trace keeps no per-frame pointers beyond the frame slices, so the
// benchmark's own heap adds little to the program's garbage collection.
type trace struct {
	frames [][]byte
	refs   []ref
	// sample holds the generating records of the first sampleLen
	// well-formed frames (the classifier replay's keys); probe the first
	// probeLen well-formed packets of a default-schema trace (the
	// convergence check's traffic).
	sample []mat.Record
	probe  []*packet.Packet
	// injected counts the malformed frames per decode reason.
	injected map[packet.DecodeReason]int

	// Generation state, released by seal.
	raw  [][]byte
	recs []mat.Record
}

// gateway is the service graph every workload's control plane churns and
// the fwd-gwlb / churn-fabric traffic addresses.
func gateway(seed int64) (*usecases.GwLB, []uint16) {
	g := usecases.Generate(services, backends, seed)
	alt := make([]uint16, len(g.Services))
	for i := range alt {
		alt[i] = uint16(altPortBase + i)
	}
	return g, alt
}

// gatewayTrace draws gwFlows frames at the gateway's services. With
// bothPorts set, hits address either of a service's two churn ports.
func gatewayTrace(g *usecases.GwLB, alt []uint16, bothPorts bool, seed int64) (*trace, error) {
	rng := rand.New(rand.NewSource(seed))
	tr := newTrace(gwFlows)
	for i := 0; i < gwFlows; i++ {
		svc := -1
		dst := 0xDEAD0000 | uint32(rng.Intn(1<<16))
		port := uint16(1024 + rng.Intn(1<<14))
		kind := rng.Float64()
		if kind >= missShare+malformedShare || kind < malformedShare {
			svc = rng.Intn(len(g.Services))
			dst, port = g.Services[svc].VIP, g.Services[svc].Port
			if bothPorts && rng.Intn(2) == 1 {
				port = alt[svc]
			}
		}
		p := packet.TCP4(0x020000000000|uint64(rng.Intn(1<<24)), 0x02FFFFFF0000|uint64(i&0xFFFF),
			rng.Uint32(), dst, uint16(1024+rng.Intn(1<<14)), port)
		frame := p.Marshal(nil)
		if kind < malformedShare {
			tr.addMalformed(frame, rng, true)
			continue
		}
		tr.add(frame, p.Record(), svc, p)
	}
	u, err := g.Universal()
	if err != nil {
		return nil, err
	}
	return tr, tr.seal(mat.SingleTable(u))
}

const (
	sampleLen = 4096
	probeLen  = 256
)

func newTrace(n int) *trace {
	return &trace{
		raw: make([][]byte, 0, n), refs: make([]ref, 0, n), recs: make([]mat.Record, 0, n),
		injected: map[packet.DecodeReason]int{},
	}
}

// add appends a well-formed frame; pkt is its generating packet on the
// default schema, nil otherwise.
func (t *trace) add(frame []byte, rec mat.Record, svc int, pkt *packet.Packet) {
	t.raw = append(t.raw, frame)
	t.refs = append(t.refs, ref{svc: svc})
	t.recs = append(t.recs, rec)
	if pkt != nil && len(t.probe) < probeLen {
		t.probe = append(t.probe, pkt)
	}
}

// addMalformed damages a well-formed frame in one of two shapes: cut
// below the Ethernet header (truncated on every codec) or, where the
// codec verifies a checksum, a flipped IPv4 checksum byte (bad header).
func (t *trace) addMalformed(frame []byte, rng *rand.Rand, checksummed bool) {
	reason := packet.ReasonTruncated
	if checksummed && rng.Intn(2) == 1 {
		reason = packet.ReasonBadHeader
		frame[packet.EthHeaderLen+10] ^= 0xFF
	} else {
		frame = frame[:rng.Intn(packet.EthHeaderLen)]
	}
	t.raw = append(t.raw, frame)
	t.refs = append(t.refs, ref{drop: true, svc: -1, bad: reason})
	t.recs = append(t.recs, nil)
	t.injected[reason]++
}

// seal evaluates every well-formed frame's record against the universal
// program's relational semantics, packs the frames and drops the
// generation state.
func (t *trace) seal(universal *mat.Pipeline) error {
	size := 0
	for _, f := range t.raw {
		size += len(f)
	}
	buf := make([]byte, 0, size)
	t.frames = make([][]byte, len(t.raw))
	for i, f := range t.raw {
		buf = append(buf, f...)
		t.frames[i] = buf[len(buf)-len(f) : len(buf) : len(buf)]
		rec := t.recs[i]
		if rec == nil {
			continue
		}
		out, err := universal.Eval(rec)
		if err != nil {
			return fmt.Errorf("reference for frame %d: %w", i, err)
		}
		t.refs[i].drop = out[mat.DropAttr] == 1
		t.refs[i].port = uint16(out["out"])
		if len(t.sample) < sampleLen {
			t.sample = append(t.sample, rec)
		}
	}
	t.raw, t.recs = nil, nil
	return nil
}

// useCase is one program family (built per representation) with the
// trace that addresses it, on one header schema ("" for the default).
type useCase struct {
	schema string
	build  func(usecases.Representation) (*mat.Pipeline, error)
	trace  *trace
}

// overlayCases builds the vxlan, mpls and gtpu use cases with equal-length
// traces; generic parse graphs verify no checksum, so their malformed
// frames are all truncations.
func overlayCases(seed int64) ([]*useCase, error) {
	vx := usecases.GenerateVXLAN(services, backends, seed)
	mp := usecases.GenerateMPLS(services, 4, seed)
	gt := usecases.GenerateGTPU(services, backends, seed)
	cases := []*useCase{
		{schema: packet.SchemaVXLAN, build: vx.Build},
		{schema: packet.SchemaMPLS, build: mp.Build},
		{schema: packet.SchemaGTPU, build: gt.Build},
	}
	for i, c := range cases {
		dec, err := packet.BuiltinDecoder(c.schema)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(seed + int64(i) + 1))
		tr := newTrace(overlayFlows)
		for n := 0; n < overlayFlows; n++ {
			kind := rng.Float64()
			hit := kind >= missShare+malformedShare || kind < malformedShare
			var v *packet.FieldView
			switch c.schema {
			case packet.SchemaVXLAN:
				v = vxlanView(dec, vx, hit, rng)
			case packet.SchemaMPLS:
				v = mplsView(dec, mp, hit, rng)
			default:
				v = gtpuView(dec, gt, hit, rng)
			}
			frame := v.Marshal(nil)
			if kind < malformedShare {
				tr.addMalformed(frame, rng, false)
				continue
			}
			tr.add(frame, v.Record(), -1, nil)
		}
		u, err := c.build(usecases.RepUniversal)
		if err != nil {
			return nil, err
		}
		if err := tr.seal(u); err != nil {
			return nil, err
		}
		c.trace = tr
	}
	return cases, nil
}

func setAll(v *packet.FieldView, headers []string, fields map[string]uint64) *packet.FieldView {
	for _, h := range headers {
		v.MarkPresentName(h)
	}
	for k, x := range fields {
		v.SetName(k, x)
	}
	return v
}

func vxlanView(dec *packet.Decoder, g *usecases.VXLANGW, hit bool, rng *rand.Rand) *packet.FieldView {
	vni := uint64(0xF00000 | rng.Intn(1<<20))
	mac := 0x0E0000000000 | uint64(rng.Intn(1<<24))
	if hit {
		ten := g.Tenants[rng.Intn(len(g.Tenants))]
		h := ten.Hosts[rng.Intn(len(ten.Hosts))]
		vni, mac = uint64(ten.VNI), h.MAC
	}
	return setAll(dec.NewView(), []string{"eth", "ipv4", "udp", "vxlan", "inner_eth"}, map[string]uint64{
		packet.FieldEthDst: 0x020000000001, packet.FieldEthSrc: 0x020000000000 | uint64(rng.Intn(1<<24)),
		packet.FieldEthType: packet.EtherTypeIPv4, "ip_verihl": 0x45, "ip_ttl": 64, "ip_proto": packet.ProtoUDP,
		"ip_src": uint64(rng.Uint32()), "ip_dst": uint64(rng.Uint32()),
		"udp_src": uint64(1024 + rng.Intn(1<<14)), "udp_dst": packet.UDPPortVXLAN,
		"vxlan_flags": 0x08, packet.FieldVXLANVNI: vni, packet.FieldInnerEthDst: mac,
		packet.FieldInnerEthSrc: 0x020000000000 | uint64(rng.Intn(1<<24)), "inner_eth_type": packet.EtherTypeIPv4,
	})
}

func mplsView(dec *packet.Decoder, g *usecases.MPLSLSR, hit bool, rng *rand.Rand) *packet.FieldView {
	label, tc := uint64(0x80000|rng.Intn(1<<19)), uint64(rng.Intn(8))
	if hit {
		f := g.Fecs[rng.Intn(len(g.Fecs))]
		label, tc = uint64(f.Label), uint64(rng.Intn(len(f.Outs)))
	}
	return setAll(dec.NewView(), []string{"eth", "mpls", "ipv4"}, map[string]uint64{
		packet.FieldEthDst: 0x020000000001, packet.FieldEthSrc: 0x020000000000 | uint64(rng.Intn(1<<24)),
		packet.FieldEthType: packet.EtherTypeMPLS, packet.FieldMPLSLabel: label, packet.FieldMPLSTC: tc,
		packet.FieldMPLSBoS: 1, packet.FieldMPLSTTL: 64, "ip_verihl": 0x45, "ip_ttl": 64,
		"ip_proto": packet.ProtoTCP, "ip_src": uint64(rng.Uint32()), "ip_dst": uint64(rng.Uint32()),
	})
}

func gtpuView(dec *packet.Decoder, g *usecases.GTPUGW, hit bool, rng *rand.Rand) *packet.FieldView {
	teid, inner := uint64(0xDEAD0000|rng.Intn(1<<16)), uint64(0x0B000000|rng.Intn(1<<24))
	if hit {
		br := g.Bearers[rng.Intn(len(g.Bearers))]
		d := br.Dests[rng.Intn(len(br.Dests))]
		teid, inner = uint64(br.TEID), uint64(d.InnerDst)
	}
	return setAll(dec.NewView(), []string{"eth", "ipv4", "udp", "gtpu", "inner_ipv4"}, map[string]uint64{
		packet.FieldEthDst: 0x020000000001, packet.FieldEthSrc: 0x020000000000 | uint64(rng.Intn(1<<24)),
		packet.FieldEthType: packet.EtherTypeIPv4, "ip_verihl": 0x45, "ip_ttl": 64, "ip_proto": packet.ProtoUDP,
		"ip_src": uint64(rng.Uint32()), "ip_dst": uint64(rng.Uint32()),
		"udp_src": uint64(1024 + rng.Intn(1<<14)), "udp_dst": packet.UDPPortGTPU,
		"gtpu_flags": 0x30, "gtpu_type": packet.GTPMsgGPDU, packet.FieldGTPUTEID: teid,
		"inner_ip_verihl": 0x45, "inner_ip_ttl": 64, "inner_ip_proto": packet.ProtoTCP,
		"inner_ip_src": uint64(rng.Uint32()), packet.FieldInnerIPDst: inner,
	})
}
