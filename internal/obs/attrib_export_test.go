package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestKindMetaComplete is the registration sync gate: every Kind below
// numKinds must carry a nonempty dotted name, at least one slot label, no
// gaps in its slot metadata, and a working name round-trip — so a new kind
// cannot ship half-registered (the exporter analogue of
// TestDocCommentListsAllAnalyzers).
func TestKindMetaComplete(t *testing.T) {
	if numKinds == 0 {
		t.Fatal("no kinds registered")
	}
	seen := make(map[string]Kind)
	for k := Kind(0); int(k) < numKinds; k++ {
		meta := kindMeta[k]
		if meta.name == "" {
			t.Errorf("Kind(%d) has no name", k)
			continue
		}
		if !strings.Contains(meta.name, ".") {
			t.Errorf("kind %q is not dotted (subsystem.event)", meta.name)
		}
		if prev, dup := seen[meta.name]; dup {
			t.Errorf("kinds %d and %d share the name %q", prev, k, meta.name)
		}
		seen[meta.name] = k
		if meta.fields[0] == "" {
			t.Errorf("kind %q has no slot metadata", meta.name)
		}
		gap := false
		for _, f := range meta.fields {
			if f == "" {
				gap = true
			} else if gap {
				t.Errorf("kind %q has a gap in its slot metadata: %v", meta.name, meta.fields)
				break
			}
		}
		got, ok := kindByName[meta.name]
		if !ok || got != k {
			t.Errorf("kindByName[%q] = %v, %v; want %v, true", meta.name, got, ok, k)
		}
		if s := k.String(); s != meta.name {
			t.Errorf("Kind(%d).String() = %q, want %q", k, s, meta.name)
		}
	}
}

// ckptAttribEvents are the PR 9 checkpoint kinds plus the PR 10 attribution
// kind, the latter exercising all six value slots.
func ckptAttribEvents() []Event {
	return []Event{
		{At: 500 * time.Millisecond, Seq: 0, Kind: KindCheckpointWrite, Flow: -1, Run: 42, V0: 81234, V1: 1, V2: 0.5},
		{At: 500 * time.Millisecond, Seq: 1, Kind: KindCheckpointRestore, Flow: -1, Run: 42, V0: 81234, V1: 0.5},
		{At: 750 * time.Millisecond, Seq: 2, Kind: KindNetAttrib, Flow: 3, Run: 42,
			V0: 0.010, V1: 0.002, V2: 0.015, V3: 0.080, V4: 0.004, V5: 0.111},
		// Zero fault/detour components must trim and restore exactly.
		{At: 800 * time.Millisecond, Seq: 3, Kind: KindNetAttrib, Flow: 4, Run: 42,
			V0: 0.001, V1: 0.002, V2: 0.015, V5: 0.018},
	}
}

func TestJSONLRoundTripCheckpointAndAttrib(t *testing.T) {
	want := ckptAttribEvents()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, want); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	got, err := ReadJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadJSONL: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
	// Old traces (≤4 value slots, pre-V4/V5) must still parse.
	legacy := `{"seq":9,"at_ns":1000000,"kind":"ckpt.write","flow":-1,"run":1,"v":[100,2,0.001]}` + "\n"
	ev, err := ReadJSONL(strings.NewReader(legacy))
	if err != nil {
		t.Fatalf("legacy 4-slot line rejected: %v", err)
	}
	if len(ev) != 1 || ev[0].Kind != KindCheckpointWrite || ev[0].V0 != 100 || ev[0].V4 != 0 || ev[0].V5 != 0 {
		t.Fatalf("legacy line misparsed: %+v", ev)
	}
}

func TestChromeTraceCheckpointAndAttrib(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, ckptAttribEvents()); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var ces []chromeEvent
	if err := json.Unmarshal(buf.Bytes(), &ces); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v\n%s", err, buf.Bytes())
	}
	// The checkpoint kinds render as instants with their slot metadata.
	var ckpts, slices []chromeEvent
	for _, ce := range ces {
		switch {
		case strings.HasPrefix(ce.Name, "ckpt."):
			ckpts = append(ckpts, ce)
		case strings.HasPrefix(ce.Name, "delay "):
			slices = append(slices, ce)
		}
	}
	if len(ckpts) != 2 {
		t.Fatalf("expected 2 ckpt instants, got %d in %s", len(ckpts), buf.Bytes())
	}
	if ckpts[0].Ph != "i" || ckpts[0].Args["bytes"] != 81234 || ckpts[0].Args["barrier"] != 0.5 {
		t.Errorf("ckpt.write instant malformed: %+v", ckpts[0])
	}
	// The first attribution event (5 nonzero components) renders as 5
	// stacked X slices whose durations sum to the total and which tile
	// [sink-total, sink] contiguously on the flow track.
	if len(slices) != 5+3 {
		t.Fatalf("expected 8 delay slices (5 + 3 nonzero comps), got %d", len(slices))
	}
	first := slices[:5]
	sinkUs := 750_000.0 // 750 ms in µs
	start := sinkUs - 0.111*1e6
	var dur float64
	for i, ce := range first {
		if ce.Ph != "X" || ce.Tid != 3 {
			t.Errorf("slice %d not an X on the flow track: %+v", i, ce)
		}
		if math.Abs(ce.Ts-(start+dur)) > 1e-6 {
			t.Errorf("slice %d starts at %v, want %v (contiguous tiling)", i, ce.Ts, start+dur)
		}
		dur += ce.Dur
	}
	if math.Abs(dur-0.111*1e6) > 1e-6 {
		t.Errorf("slice durations sum to %v µs, want %v", dur, 0.111*1e6)
	}
}

func TestPrometheusAttribRoundTrip(t *testing.T) {
	r := NewRegistry()
	tr := NewTracer(2)
	o := NewObserver(tr, r)
	// Overflow the ring so the drop counter is nonzero.
	for i := 0; i < 5; i++ {
		o.Emit(&Event{Seq: uint64(i), Kind: KindNetAttrib, Run: 1})
	}
	o.SyncTraceDropped()
	for c := 0; c < 5; c++ {
		comp := []string{"queue", "ser", "prop", "fault", "detour"}[c]
		h := r.Histogram(Labeled("netsim_attrib_seconds", "comp", comp, "run", "1"), DelayBuckets)
		h.Observe(0.002 * float64(c+1))
	}
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, r); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	pm, err := ParsePrometheus(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ParsePrometheus rejected our own exposition: %v\n%s", err, buf.Bytes())
	}
	if pm.Types["obs_trace_dropped_total"] != "counter" {
		t.Errorf("obs_trace_dropped_total not declared as a counter: %v", pm.Types)
	}
	if got := pm.Values["obs_trace_dropped_total"]; got != 3 {
		t.Errorf("obs_trace_dropped_total = %v, want 3 (5 emitted into a 2-slot ring)", got)
	}
	if pm.Types["netsim_attrib_seconds"] != "histogram" {
		t.Errorf("netsim_attrib_seconds not declared as a histogram: %v", pm.Types)
	}
	for _, comp := range []string{"queue", "ser", "prop", "fault", "detour"} {
		name := fmt.Sprintf(`netsim_attrib_seconds_count{comp=%q,run="1"}`, comp)
		if got := pm.Values[name]; got != 1 {
			t.Errorf("%s = %v, want 1", name, got)
		}
	}
}
