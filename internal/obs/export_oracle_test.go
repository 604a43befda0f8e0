package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"
)

// The exporters as they stood before they stopped using encoding/json, kept
// verbatim (only renamed ref*) as the oracle TestExportersMatchEncodingJSON
// and FuzzReadJSONL hold the hand-written ones against. jsonEvent and
// chromeEvent keep their names: production no longer declares them.

// jsonEvent is the JSONL wire form of an Event. Virtual time travels as
// integer nanoseconds and the kind as its dotted name, so the encoding
// round-trips exactly: ReadJSONL(WriteJSONL(events)) == events. Value slots
// are written as a trimmed array (trailing zero slots dropped); reading
// restores the zeros.
type jsonEvent struct {
	Seq  uint64    `json:"seq"`
	AtNs int64     `json:"at_ns"`
	Kind string    `json:"kind"`
	Flow int32     `json:"flow"`
	Run  int64     `json:"run"`
	Str  string    `json:"str,omitempty"`
	V    []float64 `json:"v,omitempty"`
}

// refWriteJSONL writes events one JSON object per line.
func refWriteJSONL(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range events {
		e := &events[i]
		je := jsonEvent{
			Seq:  e.Seq,
			AtNs: int64(e.At),
			Kind: e.Kind.String(),
			Flow: e.Flow,
			Run:  e.Run,
			Str:  e.Str,
		}
		v := [6]float64{e.V0, e.V1, e.V2, e.V3, e.V4, e.V5}
		n := 6
		for n > 0 && v[n-1] == 0 {
			n--
		}
		if n > 0 {
			je.V = v[:n]
		}
		if err := enc.Encode(&je); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// refReadJSONL parses a JSONL event stream written by WriteJSONL. It is
// strict: malformed lines, unknown kinds, and oversized value arrays are
// errors, reported with their 1-based line number.
func refReadJSONL(r io.Reader) ([]Event, error) {
	var out []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var je jsonEvent
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&je); err != nil {
			return nil, fmt.Errorf("obs: jsonl line %d: %w", line, err)
		}
		k, ok := kindByName[je.Kind]
		if !ok {
			return nil, fmt.Errorf("obs: jsonl line %d: unknown event kind %q", line, je.Kind)
		}
		if len(je.V) > 6 {
			return nil, fmt.Errorf("obs: jsonl line %d: %d value slots (max 6)", line, len(je.V))
		}
		e := Event{
			At:   time.Duration(je.AtNs),
			Seq:  je.Seq,
			Kind: k,
			Flow: je.Flow,
			Run:  je.Run,
			Str:  je.Str,
		}
		var v [6]float64
		copy(v[:], je.V)
		e.V0, e.V1, e.V2, e.V3 = v[0], v[1], v[2], v[3]
		e.V4, e.V5 = v[4], v[5]
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: jsonl: %w", err)
	}
	return out, nil
}

// chromeEvent is one entry of the Chrome trace_event JSON array format
// (load chrome://tracing or https://ui.perfetto.dev). pid groups by run,
// tid by flow, ts/dur are microseconds of virtual time.
type chromeEvent struct {
	Name string             `json:"name"`
	Ph   string             `json:"ph"`
	Ts   float64            `json:"ts"`
	Dur  float64            `json:"dur,omitempty"`
	Pid  int64              `json:"pid"`
	Tid  int32              `json:"tid"`
	S    string             `json:"s,omitempty"`
	Args map[string]float64 `json:"args,omitempty"`
}

// refWriteChromeTrace renders events in Chrome trace_event format:
//
//   - verus.epoch events become "C" (counter) tracks, one per flow, so the
//     window, quota, and delay estimates plot as stacked time series;
//   - fault.begin/fault.end pairs become "X" (complete) slices spanning the
//     fault window;
//   - net.attrib events become per-flow "X" (complete) slices, one per
//     nonzero delay component, laid end-to-end over the packet's lifetime
//     [sink-total, sink] so each delivery renders as a stacked delay budget;
//   - everything else becomes an "i" (instant) marker.
//
// Events must be in emission order (as returned by Tracer.Snapshot); fault
// windows still open at the end of the trace are emitted as instants.
func refWriteChromeTrace(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("[\n"); err != nil {
		return err
	}
	first := true
	emit := func(ce chromeEvent) error {
		if !first {
			if _, err := bw.WriteString(",\n"); err != nil {
				return err
			}
		}
		first = false
		b, err := json.Marshal(ce)
		if err != nil {
			return err
		}
		_, err = bw.Write(b)
		return err
	}

	// Open fault windows, keyed by (run, flow, kind string).
	type faultKey struct {
		run  int64
		flow int32
		str  string
	}
	open := make(map[faultKey]Event)

	for _, e := range events {
		ts := float64(e.At) / 1e3 // ns -> µs
		switch e.Kind {
		case KindVerusEpoch:
			ce := chromeEvent{
				Name: fmt.Sprintf("verus flow %d", e.Flow),
				Ph:   "C", Ts: ts, Pid: e.Run, Tid: e.Flow,
				Args: map[string]float64{
					"dmax_ms": e.V0 * 1e3,
					"dest_ms": e.V1 * 1e3,
					"w_pkts":  e.V2,
					"quota":   e.V3,
				},
			}
			if err := emit(ce); err != nil {
				return err
			}
		case KindNetAttrib:
			// Reconstruct the packet's lifetime span backward from the sink
			// time: components are laid end-to-end in enum order, which also
			// approximates their chronological order on a fault-free path.
			comps := [...]struct {
				name string
				secs float64
			}{
				{"queue", e.V0}, {"ser", e.V1}, {"prop", e.V2},
				{"fault", e.V3}, {"detour", e.V4},
			}
			start := ts - e.V5*1e6 // s -> µs
			for _, c := range comps {
				if c.secs <= 0 {
					continue
				}
				ce := chromeEvent{
					Name: "delay " + c.name,
					Ph:   "X", Ts: start, Dur: c.secs * 1e6,
					Pid: e.Run, Tid: e.Flow,
					Args: map[string]float64{"total_ms": e.V5 * 1e3},
				}
				if err := emit(ce); err != nil {
					return err
				}
				start += c.secs * 1e6
			}
		case KindFaultBegin:
			open[faultKey{e.Run, e.Flow, e.Str}] = e
		case KindFaultEnd:
			k := faultKey{e.Run, e.Flow, e.Str}
			if b, ok := open[k]; ok {
				delete(open, k)
				ce := chromeEvent{
					Name: "fault " + b.Str,
					Ph:   "X", Ts: float64(b.At) / 1e3, Dur: ts - float64(b.At)/1e3,
					Pid: e.Run, Tid: e.Flow,
					Args: map[string]float64{"drained": b.V1, "released": e.V0},
				}
				if err := emit(ce); err != nil {
					return err
				}
			} else if err := emit(refInstant(e, ts)); err != nil {
				return err
			}
		default:
			if err := emit(refInstant(e, ts)); err != nil {
				return err
			}
		}
	}
	// Unclosed fault windows degrade to instants at their open time.
	// Deterministic order: events arrived ordered, and at most a handful of
	// windows stay open, so sweep the original slice rather than the map.
	for _, e := range events {
		k := faultKey{e.Run, e.Flow, e.Str}
		if e.Kind != KindFaultBegin {
			continue
		}
		if b, ok := open[k]; !ok || b.Seq != e.Seq {
			continue
		}
		delete(open, k)
		if err := emit(refInstant(e, float64(e.At)/1e3)); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("\n]\n"); err != nil {
		return err
	}
	return bw.Flush()
}

func refInstant(e Event, ts float64) chromeEvent {
	name := e.Kind.String()
	if e.Str != "" {
		name += " " + e.Str
	}
	args := make(map[string]float64, 6)
	meta := kindMeta[e.Kind]
	for i, v := range [6]float64{e.V0, e.V1, e.V2, e.V3, e.V4, e.V5} {
		if meta.fields[i] != "" {
			args[meta.fields[i]] = v
		}
	}
	return chromeEvent{Name: name, Ph: "i", Ts: ts, Pid: e.Run, Tid: e.Flow, S: "t", Args: args}
}

// oracleStrs covers the string appender: its fast path (the first three)
// and every branch of its slow path.
var oracleStrs = []string{
	"", "outage", "handover",
	`say "hi"`, `back\slash`, "<a>&b", "tab\there", "ctl\x01\x1f\b\f\n\r",
	"h\u00e9llo \u2192 \u4e16\u754c", "ls\u2028ps\u2029", "bad\xffbyte", "\ufffd kept",
}

// oracleVals covers the float appender: zeros, integers, 17-digit
// fractions, both sides of the 1e-6 and 1e21 format switches, the smallest
// float, and the largest the Chrome writer can still scale to microseconds.
var oracleVals = []float64{
	0, math.Copysign(0, -1), 1, 7, 1392, 81234, 1 << 53,
	0.1 + 0.2, 0.045, 1.0 / 3, 2.0 / 3, 0.30000000000000004,
	1e-6, 9.999999999999999e-7, 1.0000000000000002e-6, 1e-7, 3.5e-9, 1.25e-10, 5e-324,
	1e21, 9.999999999999999e20, 1.0000000000000001e21, 1e22, 1.5e300,
}

// oracleEvents draws n events, in emission order, over every Kind. Faults
// share a few (run, flow, str) keys, so begin/end pairs match, stay open,
// close what was never opened and re-open what is open, all by chance.
func oracleEvents(rng *rand.Rand, n int, seq uint64) []Event {
	out := make([]Event, n)
	var at time.Duration
	for i := range out {
		at += time.Duration(rng.Intn(3)) * time.Duration(rng.Intn(2_000_000))
		e := Event{
			At:   at,
			Seq:  seq + uint64(i),
			Kind: Kind(rng.Intn(numKinds)),
			Flow: int32(rng.Intn(4)) - 1,
			Run:  []int64{42, 7, -3, math.MaxInt64}[rng.Intn(4)],
			Str:  oracleStrs[rng.Intn(len(oracleStrs))],
		}
		if e.Kind == KindFaultBegin || e.Kind == KindFaultEnd {
			e.Run, e.Flow = 42, int32(rng.Intn(2))-1
			e.Str = oracleStrs[1+rng.Intn(4)]
		}
		// Fill a prefix of the slots, so every trimmed length occurs.
		slots := [6]*float64{&e.V0, &e.V1, &e.V2, &e.V3, &e.V4, &e.V5}
		for _, s := range slots[:rng.Intn(7)] {
			switch x := oracleVals[rng.Intn(len(oracleVals))]; rng.Intn(4) {
			case 0:
				*s = rng.Float64()
			case 1:
				*s = -x
			default:
				*s = x
			}
		}
		out[i] = e
	}
	return out
}

// TestExportersMatchEncodingJSON holds the hand-written exporters against
// the encoding/json ones they replaced, over 2×10⁵ seeded events: the same
// JSONL bytes, the same Chrome bytes, and a reader that returns what the old
// reader returns and what was written. The format is lossy by design in two
// places, both invisible to DeepEqual or spelled out below: a trailing -0
// slot is trimmed and reads back as 0, and a byte of Str that is not valid
// UTF-8 reads back as U+FFFD.
func TestExportersMatchEncodingJSON(t *testing.T) {
	const chunks, perChunk = 200, 1024
	rng := rand.New(rand.NewSource(24))
	var kinds [numKinds]int
	var expFormat, slowStrings, phC, phXAttrib, phXFault, phI int
	var got, want bytes.Buffer
	for c := 0; c < chunks; c++ {
		events := oracleEvents(rng, perChunk, uint64(c)*perChunk)
		if c == 0 {
			// Every field at an end of its range, on an unscaled instant.
			events[0] = Event{Seq: math.MaxUint64, At: math.MinInt64, Run: math.MinInt64, Flow: math.MinInt32,
				Kind: KindStall, V0: math.MaxFloat64, V1: -math.MaxFloat64}
		}
		for i := range events {
			e := &events[i]
			kinds[e.Kind]++
			for _, x := range [6]float64{e.V0, e.V1, e.V2, e.V3, e.V4, e.V5} {
				if a := math.Abs(x); a != 0 && (a < 1e-6 || a >= 1e21) {
					expFormat++
				}
			}
			if string(appendJSONStringBody(nil, e.Str)) != e.Str {
				slowStrings++
			}
		}

		got.Reset()
		want.Reset()
		if err := WriteJSONL(&got, events); err != nil {
			t.Fatalf("chunk %d: WriteJSONL: %v", c, err)
		}
		if err := refWriteJSONL(&want, events); err != nil {
			t.Fatalf("chunk %d: refWriteJSONL: %v", c, err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("chunk %d: JSONL differs from encoding/json's:\n%s", c, firstDiff(got.Bytes(), want.Bytes()))
		}
		back, err := ReadJSONL(bytes.NewReader(got.Bytes()))
		if err != nil {
			t.Fatalf("chunk %d: ReadJSONL of our own bytes: %v", c, err)
		}
		refBack, err := refReadJSONL(bytes.NewReader(got.Bytes()))
		if err != nil {
			t.Fatalf("chunk %d: refReadJSONL: %v", c, err)
		}
		if !reflect.DeepEqual(back, refBack) {
			t.Fatalf("chunk %d: ReadJSONL and the encoding/json reader disagree", c)
		}
		for i := range events {
			// Each invalid byte comes back as one U+FFFD, which is what a
			// string's runes are.
			events[i].Str = string([]rune(events[i].Str))
		}
		if !reflect.DeepEqual(back, events) {
			t.Fatalf("chunk %d: ReadJSONL(WriteJSONL(events)) != events", c)
		}

		got.Reset()
		want.Reset()
		if err := WriteChromeTrace(&got, events); err != nil {
			t.Fatalf("chunk %d: WriteChromeTrace: %v", c, err)
		}
		if err := refWriteChromeTrace(&want, events); err != nil {
			t.Fatalf("chunk %d: refWriteChromeTrace: %v", c, err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("chunk %d: Chrome trace differs from encoding/json's:\n%s", c, firstDiff(got.Bytes(), want.Bytes()))
		}
		phC += bytes.Count(got.Bytes(), []byte(`"ph":"C"`))
		phXAttrib += bytes.Count(got.Bytes(), []byte(`{"name":"delay `))
		phXFault += bytes.Count(got.Bytes(), []byte(`{"name":"fault `))
		phI += bytes.Count(got.Bytes(), []byte(`"ph":"i"`))
	}
	// The comparison is only worth its events if they reached every branch.
	for k, n := range kinds {
		if n < 1000 {
			t.Errorf("kind %v drawn %d times, want >= 1000", Kind(k), n)
		}
	}
	for name, n := range map[string]int{
		"exponent-format values": expFormat, "strings off the fast path": slowStrings,
		"C entries": phC, "X entries from net.attrib": phXAttrib, "X entries from fault pairs": phXFault, "i entries": phI,
	} {
		if n < 1000 {
			t.Errorf("%s: %d, want >= 1000", name, n)
		}
	}
}

// firstDiff shows the first line two exports disagree on.
func firstDiff(got, want []byte) string {
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(g) && i < len(w); i++ {
		if !bytes.Equal(g[i], w[i]) {
			return fmt.Sprintf("line %d:\n got %s\nwant %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("got %d lines, want %d", len(g), len(w))
}

// TestExportersRejectNonFinite: JSON has no NaN or infinity, so neither
// writer writes one and neither rewrites it to something else. Every slot of
// every kind fails in WriteJSONL, old and new; the Chrome writers fail
// wherever the slot reaches the output, and agree on where that is (a
// fault.begin's length and an attribution without components are never
// drawn). The new errors name the event.
func TestExportersRejectNonFinite(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		for slot := 0; slot < 6; slot++ {
			for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
				e := Event{Seq: 812, At: time.Second, Kind: k, Run: 1, V0: 1, V1: 1, V2: 1, V3: 1, V4: 1, V5: 1}
				*[6]*float64{&e.V0, &e.V1, &e.V2, &e.V3, &e.V4, &e.V5}[slot] = bad
				events := []Event{e}

				err := WriteJSONL(io.Discard, events)
				wantMsg := fmt.Sprintf("obs: jsonl: event seq 812 (%v): value slot %d is %s", k, slot, nonFinite(bad))
				if err == nil || err.Error() != wantMsg {
					t.Errorf("WriteJSONL: error %v, want %q", err, wantMsg)
				}
				if refWriteJSONL(io.Discard, events) == nil {
					t.Errorf("refWriteJSONL accepted %v in slot %d of %v", bad, slot, k)
				}

				err = WriteChromeTrace(io.Discard, events)
				refErr := refWriteChromeTrace(io.Discard, events)
				if (err == nil) != (refErr == nil) {
					t.Errorf("%v slot %d = %v: WriteChromeTrace error %v, encoding/json's %v", k, slot, bad, err, refErr)
				}
				if err != nil && !strings.HasPrefix(err.Error(), fmt.Sprintf("obs: chrome: event seq 812 (%v): ", k)) {
					t.Errorf("WriteChromeTrace error does not name the event: %v", err)
				}
				// An instant carries its named slots unscaled.
				if k != KindVerusEpoch && k != KindNetAttrib && k != KindFaultBegin && kindMeta[k].fields[slot] != "" && err == nil {
					t.Errorf("WriteChromeTrace wrote %v for %v's %s", bad, k, kindMeta[k].fields[slot])
				}
			}
		}
	}
	err := WriteChromeTrace(io.Discard, []Event{{Seq: 812, Kind: KindVerusEpoch, V0: math.NaN()}})
	if want := "obs: chrome: event seq 812 (verus.epoch): dmax_ms is NaN"; err == nil || err.Error() != want {
		t.Errorf("WriteChromeTrace: error %v, want %q", err, want)
	}
}
