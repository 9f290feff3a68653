package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"

	"manorm/internal/dataplane"
	"manorm/internal/packet"
)

// benchmarkNames reads the metric names BENCHMARK.json declares.
func benchmarkNames(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var ws []string
	for _, w := range b.Workloads {
		ws = append(ws, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if !equalSorted(ws, have) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", ws, have)
	}
	for _, m := range b.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range b.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

func equalSorted(a, b []string) bool {
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestShortRuns runs every workload briefly, untraced and traced, and
// checks that no operation failed and that the printed metrics are
// exactly the ones BENCHMARK.json declares.
func TestShortRuns(t *testing.T) {
	endToEnd, perLayer := benchmarkNames(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := run(w, 7, 300*time.Millisecond, traced, t.TempDir())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			var got []string
			for name, m := range res.Metrics {
				got = append(got, name)
				if !traced && m.Value <= 0 {
					t.Errorf("%s: %s = %v, want > 0", w.name, name, m.Value)
				}
			}
			if !equalSorted(got, want) {
				t.Errorf("%s traced=%v: metrics %v, BENCHMARK.json %v", w.name, traced, got, want)
			}
		}
	}
}

// TestCorruptedVerdictFails plants a wrong verdict in a copy of a real
// slice's outputs and expects the check to report it.
func TestCorruptedVerdictFails(t *testing.T) {
	g, alt := gateway(3)
	tr, err := gatewayTrace(g, alt, false, 4)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := newSwitch(pairSpec{"eswitch", "goto"}, "", g.Build)
	if err != nil {
		t.Fatal(err)
	}
	l := newLane(sw, tr, gwSlice)
	if _, err := l.run(); err != nil {
		t.Fatal(err)
	}
	out := append([]dataplane.Verdict(nil), l.out...)
	if bad := checkVerdicts(out, tr.refs, 0, false, nil); bad != 0 {
		t.Fatalf("unmodified outputs: %d wrong verdicts", bad)
	}
	ports := backendPorts(g)
	if bad := checkVerdicts(out, tr.refs, 0, true, ports); bad != 0 {
		t.Fatalf("unmodified outputs, live check: %d wrong verdicts", bad)
	}
	hit := -1
	for i, r := range tr.refs[:gwSlice] {
		if !r.drop && r.svc >= 0 {
			hit = i
			break
		}
	}
	if hit < 0 {
		t.Fatal("no forwarded frame in the slice")
	}
	// Send the frame to the next service's first backend: wrong for the
	// exact check and for the service-graph check alike.
	other := g.Services[(tr.refs[hit].svc+1)%len(g.Services)].Backends[0].Out
	out[hit].Port = other
	if bad := checkVerdicts(out, tr.refs, 0, false, nil); bad != 1 {
		t.Errorf("corrupted port: %d wrong verdicts, want 1", bad)
	}
	if bad := checkVerdicts(out, tr.refs, 0, true, ports); bad != 1 {
		t.Errorf("corrupted port, live check: %d wrong verdicts, want 1", bad)
	}
	out[hit].Port = l.out[hit].Port
	if share := forwardedShare(out, tr.refs, 0); share < minLiveShare {
		t.Fatalf("unmodified outputs forward %.3f of service-addressed frames", share)
	}
	// A live switch that drops everything breaks no single verdict, but
	// falls below the forwarding floor.
	dropped := make([]dataplane.Verdict, len(out))
	for i := range dropped {
		dropped[i].Drop = true
	}
	if bad := checkVerdicts(dropped, tr.refs, 0, true, ports); bad != 0 {
		t.Errorf("all-drop outputs, live check: %d wrong verdicts, want 0", bad)
	}
	if share := forwardedShare(dropped, tr.refs, 0); share >= minLiveShare {
		t.Errorf("all-drop outputs forward %.3f of service-addressed frames", share)
	}
	for i, r := range tr.refs[:gwSlice] {
		if r.bad != 0 {
			out[i].Drop = false
			if bad := checkVerdicts(out, tr.refs, 0, true, ports); bad != 1 {
				t.Errorf("forwarded malformed frame: %d wrong verdicts, want 1", bad)
			}
			break
		}
	}
}

// TestDroppedEpochFails runs a few control rounds on a real fabric, then
// plants a dropped epoch and a missing false conflict in copies of the
// outcome and expects each to be reported.
func TestDroppedEpochFails(t *testing.T) {
	g, alt := gateway(5)
	tr := newTracer()
	fab, err := newFabricRig(g, 5, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer fab.close()
	cg, _ := gateway(5)
	ctl := newControl(fab, cg, alt, tr)
	var op int64
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if failed := ctl.round(ctx, raceEvery, &op); failed != 0 {
			t.Fatalf("round %d: %d failed steps", i, failed)
		}
	}
	gt, err := gatewayTrace(g, alt, true, 6)
	if err != nil {
		t.Fatal(err)
	}
	outcome, _, err := ctl.finish(ctx, gt.probe)
	if err != nil {
		t.Fatal(err)
	}
	if p := outcome.problems(); len(p) != 0 {
		t.Fatalf("clean run reported %v", p)
	}
	if outcome.wantEpochs != 2*(raceEvery+1) || outcome.wantFalse != 2 {
		t.Fatalf("schedule issued %d epochs and %d races, want %d and 2", outcome.wantEpochs, outcome.wantFalse, 2*(raceEvery+1))
	}
	dropped := outcome
	dropped.committed--
	if len(dropped.problems()) == 0 {
		t.Error("a dropped epoch went unreported")
	}
	missed := outcome
	missed.falseConflicts--
	if len(missed.problems()) == 0 {
		t.Error("a racing round the oracle did not refute went unreported")
	}
	diverged := outcome
	diverged.converged = false
	if len(diverged.problems()) == 0 {
		t.Error("a diverged fabric went unreported")
	}
}

// TestPlantedFailuresAreIncorrect runs a workload on inputs with a planted
// fault and expects the printed result to count failures and say it is not
// correct: a wrong reference port makes the first slice's verdict wrong,
// and one more injected truncation than the trace holds makes the
// switches' typed drop counts disagree.
func TestPlantedFailuresAreIncorrect(t *testing.T) {
	w := workloads[0]
	for _, plant := range []string{"verdict", "drops"} {
		in, err := newInputs(w, 9)
		if err != nil {
			t.Fatal(err)
		}
		tr := in.gwTrace
		switch plant {
		case "verdict":
			for i, r := range tr.refs[:gwSlice] {
				if !r.drop && r.svc >= 0 {
					tr.refs[i].port = in.g.Services[(r.svc+1)%len(in.g.Services)].Backends[0].Out
					break
				}
			}
		case "drops":
			tr.injected[packet.ReasonTruncated]++
		}
		res, err := measure(w, in, 200*time.Millisecond, false, t.TempDir())
		if err != nil {
			t.Fatalf("%s: %v", plant, err)
		}
		if res.Correct || res.Failed == 0 {
			t.Errorf("planted %s: correct=%v failed=%d, want false and > 0", plant, res.Correct, res.Failed)
		}
	}
}
