package obs

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/bits"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
)

func sampleEvents() []Event {
	return []Event{
		{At: 250 * time.Millisecond, Seq: 0, Kind: KindVerusEpoch, Flow: 0, Run: 123, V0: 0.045, V1: 0.052, V2: 38, V3: 7},
		{At: 300 * time.Millisecond, Seq: 1, Kind: KindVerusState, Flow: 1, Run: 123, Str: "loss-recovery", V0: 19, V1: 0.05},
		{At: 2 * time.Second, Seq: 2, Kind: KindFaultBegin, Flow: -1, Run: 123, Str: "outage", V0: 4, V1: 12},
		{At: 6 * time.Second, Seq: 3, Kind: KindFaultEnd, Flow: -1, Run: 123, Str: "outage", V0: 0},
		{At: 6*time.Second + time.Microsecond, Seq: 4, Kind: KindNetDrop, Flow: 0, Run: 123, Str: "tail", V0: 1392},
		{At: 7 * time.Second, Seq: 5, Kind: KindStall, Flow: 0, Run: 7, V0: 3},
	}
}

func TestJSONLRoundTripExact(t *testing.T) {
	want := sampleEvents()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, want); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatalf("ReadJSONL: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestJSONLDeterministicBytes(t *testing.T) {
	events := sampleEvents()
	var a, b bytes.Buffer
	if err := WriteJSONL(&a, events); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSONL(&b, events); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("WriteJSONL output must be byte-identical across calls")
	}
}

func TestReadJSONLStrict(t *testing.T) {
	const good = `{"seq":0,"at_ns":0,"kind":"verus.epoch","flow":0,"run":1}`
	cases := []struct{ name, in string }{
		{"garbage", "not json"},
		{"unknown kind", `{"seq":0,"at_ns":0,"kind":"bogus.kind","flow":0,"run":1}`},
		{"unknown field", `{"seq":0,"at_ns":0,"kind":"verus.epoch","flow":0,"run":1,"extra":true}`},
		{"too many values", `{"seq":0,"at_ns":0,"kind":"verus.epoch","flow":0,"run":1,"v":[1,2,3,4,5,6,7]}`},
		// What encoding/json let through.
		{"trailing bytes", good + ` trailing junk`},
		{"two objects on one line", good + good},
		{"upper-case key", `{"SEQ":0,"at_ns":0,"kind":"verus.epoch","flow":0,"run":1}`},
		{"mixed-case key", `{"seq":0,"At_Ns":0,"kind":"verus.epoch","flow":0,"run":1}`},
		{"duplicate key", `{"seq":0,"seq":1,"at_ns":0,"kind":"verus.epoch","flow":0,"run":1}`},
		{"null field", `{"seq":0,"at_ns":0,"kind":"verus.epoch","flow":null,"run":1}`},
		{"null str", `{"seq":0,"at_ns":0,"kind":"verus.epoch","flow":0,"run":1,"str":null}`},
		{"null v", `{"seq":0,"at_ns":0,"kind":"verus.epoch","flow":0,"run":1,"v":null}`},
		{"null inside v", `{"seq":0,"at_ns":0,"kind":"verus.epoch","flow":0,"run":1,"v":[1,null]}`},
		{"seq missing", `{"at_ns":0,"kind":"verus.epoch","flow":0,"run":1}`},
		{"at_ns missing", `{"seq":0,"kind":"verus.epoch","flow":0,"run":1}`},
		{"kind missing", `{"seq":0,"at_ns":0,"flow":0,"run":1}`},
		{"flow missing", `{"seq":0,"at_ns":0,"kind":"verus.epoch","run":1}`},
		{"run missing", `{"seq":0,"at_ns":0,"kind":"verus.epoch","flow":0}`},
		{"only a kind", `{"kind":"verus.epoch"}`},
		{"empty object", `{}`},
		// Numbers that are not the field's.
		{"fraction for an integer", `{"seq":1.0,"at_ns":0,"kind":"verus.epoch","flow":0,"run":1}`},
		{"exponent for an integer", `{"seq":0,"at_ns":1e3,"kind":"verus.epoch","flow":0,"run":1}`},
		{"flow = 2^31", `{"seq":0,"at_ns":0,"kind":"verus.epoch","flow":2147483648,"run":1}`},
		{"flow = -2^31-1", `{"seq":0,"at_ns":0,"kind":"verus.epoch","flow":-2147483649,"run":1}`},
		{"seq = -1", `{"seq":-1,"at_ns":0,"kind":"verus.epoch","flow":0,"run":1}`},
		{"seq = 2^64", `{"seq":18446744073709551616,"at_ns":0,"kind":"verus.epoch","flow":0,"run":1}`},
		{"run = 2^63", `{"seq":0,"at_ns":0,"kind":"verus.epoch","flow":0,"run":9223372036854775808}`},
		{"leading zero", `{"seq":01,"at_ns":0,"kind":"verus.epoch","flow":0,"run":1}`},
		{"string in v", `{"seq":0,"at_ns":0,"kind":"verus.epoch","flow":0,"run":1,"v":["1"]}`},
		{"bare point in v", `{"seq":0,"at_ns":0,"kind":"verus.epoch","flow":0,"run":1,"v":[1.]}`},
		{"bare exponent in v", `{"seq":0,"at_ns":0,"kind":"verus.epoch","flow":0,"run":1,"v":[1e]}`},
		{"overflow in v", `{"seq":0,"at_ns":0,"kind":"verus.epoch","flow":0,"run":1,"v":[1e999]}`},
		{"NaN in v", `{"seq":0,"at_ns":0,"kind":"verus.epoch","flow":0,"run":1,"v":[NaN]}`},
		{"trailing comma in v", `{"seq":0,"at_ns":0,"kind":"verus.epoch","flow":0,"run":1,"v":[1,]}`},
		{"trailing comma", `{"seq":0,"at_ns":0,"kind":"verus.epoch","flow":0,"run":1,}`},
		// Strings that are not text.
		{"lone high surrogate", `{"seq":0,"at_ns":0,"kind":"verus.epoch","flow":0,"run":1,"str":"\ud800"}`},
		{"lone low surrogate", `{"seq":0,"at_ns":0,"kind":"verus.epoch","flow":0,"run":1,"str":"\udc00\ud800"}`},
		{"invalid UTF-8", `{"seq":0,"at_ns":0,"kind":"verus.epoch","flow":0,"run":1,"str":"` + "a\xffb" + `"}`},
		{"raw control byte", `{"seq":0,"at_ns":0,"kind":"verus.epoch","flow":0,"run":1,"str":"` + "a\x01b" + `"}`},
		{"bad escape", `{"seq":0,"at_ns":0,"kind":"verus.epoch","flow":0,"run":1,"str":"\x41"}`},
		{"unterminated string", `{"seq":0,"at_ns":0,"kind":"verus.epoch","flow":0,"run":1,"str":"abc`},
		{"escaped key", `{"s\u0065q":0,"at_ns":0,"kind":"verus.epoch","flow":0,"run":1}`},
	}
	for _, tc := range cases {
		// A good line first, so the error has a line number to get right.
		_, err := ReadJSONL(strings.NewReader(good + "\n" + tc.in + "\n"))
		if err == nil {
			t.Errorf("%s: ReadJSONL accepted %q", tc.name, tc.in)
		} else if !strings.HasPrefix(err.Error(), "obs: jsonl line 2: ") {
			t.Errorf("%s: error %q does not name line 2", tc.name, err)
		}
	}
}

// What the grammar allows beyond WriteJSONL's own output: any key order,
// RFC 8259 whitespace, every string escape, "-0", an empty "str" or "v".
func TestReadJSONLAcceptsTheGrammar(t *testing.T) {
	in := " \t{ \"v\" : [ 1.5 , -0 , 2E+3 ] ,\"run\":-0,\"str\":\"a\\\"\\\\\\/\\b\\f\\n\\r\\t\\u00e9\\ud83d\\ude00z\"," +
		"\"flow\":-2147483648,\"kind\":\"net.dr\\u006fp\",\"at_ns\":-9223372036854775808,\"seq\":18446744073709551615 } \r\n" +
		"\n" +
		`{"seq":1,"at_ns":2,"kind":"transport.stall","flow":3,"run":4,"str":"","v":[]}` + "\n"
	want := []Event{
		{Seq: math.MaxUint64, At: math.MinInt64, Kind: KindNetDrop, Flow: math.MinInt32,
			Str: "a\"\\/\b\f\n\r\té\U0001F600z", V0: 1.5, V1: math.Copysign(0, -1), V2: 2000},
		{Seq: 1, At: 2, Kind: KindStall, Flow: 3, Run: 4},
	}
	got, err := ReadJSONL(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ReadJSONL: %v", err)
	}
	if !reflect.DeepEqual(got, want) || !math.Signbit(got[0].V1) {
		t.Fatalf("got %+v\nwant %+v", got, want)
	}
	ref, err := refReadJSONL(strings.NewReader(in))
	if err != nil || !reflect.DeepEqual(ref, got) {
		t.Fatalf("the encoding/json reader disagrees: %+v, %v", ref, err)
	}
}

func TestChromeTraceFormat(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, sampleEvents()); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var entries []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &entries); err != nil {
		t.Fatalf("trace is not a JSON array: %v\n%s", err, buf.String())
	}
	var counters, completes, instants int
	for _, e := range entries {
		switch e["ph"] {
		case "C":
			counters++
			if e["pid"].(float64) != 123 {
				t.Fatalf("counter pid = %v, want run 123", e["pid"])
			}
			args := e["args"].(map[string]any)
			if args["w_pkts"].(float64) != 38 {
				t.Fatalf("counter args = %v, want w_pkts 38", args)
			}
		case "X":
			completes++
			// 2s..6s outage window: ts=2e6 µs, dur=4e6 µs.
			if e["ts"].(float64) != 2e6 || e["dur"].(float64) != 4e6 {
				t.Fatalf("complete event ts/dur = %v/%v, want 2e6/4e6", e["ts"], e["dur"])
			}
		case "i":
			instants++
		default:
			t.Fatalf("unexpected phase %v", e["ph"])
		}
	}
	if counters != 1 || completes != 1 || instants != 3 {
		t.Fatalf("got %d counter, %d complete, %d instant events; want 1, 1, 3", counters, completes, instants)
	}
}

func TestChromeTraceUnclosedFaultDegradesToInstant(t *testing.T) {
	begin := func(at time.Duration) Event {
		return Event{At: at, Kind: KindFaultBegin, Flow: -1, Run: 1, Str: "handover", V0: 2}
	}
	end := func(at time.Duration) Event {
		return Event{At: at, Kind: KindFaultEnd, Flow: -1, Run: 1, Str: "handover"}
	}
	for _, tc := range []struct {
		name   string
		events []Event
		want   []string // "ph@ts" per entry, ts in µs
	}{
		{"never closed", []Event{begin(time.Second)}, []string{"i@1e+06"}},
		// The instant sits at the begin still open, not at the key's first one.
		{"closed then reopened", []Event{begin(time.Microsecond), end(2 * time.Microsecond), begin(5 * time.Microsecond)}, []string{"X@1", "i@5"}},
	} {
		var buf bytes.Buffer
		if err := WriteChromeTrace(&buf, tc.events); err != nil {
			t.Fatal(err)
		}
		var entries []map[string]any
		if err := json.Unmarshal(buf.Bytes(), &entries); err != nil {
			t.Fatalf("%s: invalid JSON: %v", tc.name, err)
		}
		var got []string
		for _, e := range entries {
			got = append(got, fmt.Sprintf("%v@%v", e["ph"], e["ts"]))
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: entries %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestPrometheusRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter(Labeled("verus_relearns_total", "flow", "0", "run", "123")).Add(3)
	r.Counter(Labeled("verus_relearns_total", "flow", "1", "run", "123")).Add(1)
	r.Gauge("verus_window_pkts").Set(38.5)
	h := r.Histogram("net_sojourn_seconds", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var buf bytes.Buffer
	if err := WritePrometheus(&buf, r); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	pm, err := ParsePrometheus(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ParsePrometheus rejected our own exposition: %v\n%s", err, buf.String())
	}
	if pm.Types["verus_relearns_total"] != "counter" ||
		pm.Types["verus_window_pkts"] != "gauge" ||
		pm.Types["net_sojourn_seconds"] != "histogram" {
		t.Fatalf("types = %v", pm.Types)
	}
	checks := map[string]float64{
		`verus_relearns_total{flow="0",run="123"}`: 3,
		`verus_relearns_total{flow="1",run="123"}`: 1,
		`verus_window_pkts`:                        38.5,
		`net_sojourn_seconds_bucket{le="0.1"}`:     1,
		`net_sojourn_seconds_bucket{le="1"}`:       2,
		`net_sojourn_seconds_bucket{le="+Inf"}`:    3,
		`net_sojourn_seconds_count`:                3,
	}
	for name, want := range checks {
		got, ok := pm.Values[name]
		if !ok || got != want {
			t.Errorf("series %q = %v (present=%v), want %v\n%s", name, got, ok, want, buf.String())
		}
	}
	if got := pm.Values["net_sojourn_seconds_sum"]; got < 5.54 || got > 5.56 {
		t.Errorf("histogram sum = %v, want ≈5.55", got)
	}

	// Byte determinism: two renders of the same registry are identical.
	var again bytes.Buffer
	if err := WritePrometheus(&again, r); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("WritePrometheus must be byte-deterministic")
	}
}

// pinnedPromRegistry holds what the traced trials' registries lack: an
// unlabeled histogram, a label value that needed escaping, NaN and ±Inf
// gauge and sum values, and counts that format with an exponent. Counters
// hold integers, so a NaN or infinity can reach them only as a gauge or a sum.
func pinnedPromRegistry() *Registry {
	r := NewRegistry()
	plain := r.Histogram("pin_plain_seconds", []float64{0.001, 0.5, 1, 2.5, 1e21})
	for _, v := range []float64{0.0004, 0.3, 0.7, 2, 3e21} {
		plain.Observe(v)
	}
	esc := r.Histogram(Labeled("pin_escaped_seconds", "path", "a\"b\\c\nd", "run", "7"), []float64{0.1})
	esc.Observe(0.05)
	esc.Observe(9)
	for _, s := range []struct {
		label string
		v     float64
	}{{"nan", math.NaN()}, {"pinf", math.Inf(1)}, {"ninf", math.Inf(-1)}} {
		r.Gauge(Labeled("pin_value", "case", s.label)).Set(s.v)
		r.Histogram(Labeled("pin_sum_seconds", "case", s.label), []float64{1}).Observe(s.v)
	}
	r.Gauge(Labeled("pin_value", "case", "negzero")).Set(math.Copysign(0, -1))
	r.Gauge(Labeled("pin_value", "case", "tiny")).Set(1.5e-7)
	r.Counter(Labeled("pin_total", "case", "million")).Add(1e6)
	r.Counter(Labeled("pin_total", "case", "large")).Add(1<<53 + 1)
	r.Counter(Labeled("pin_total", "case", "restored")).Restore(-3)
	r.Counter("pin_total").Add(0)
	return r
}

// TestPrometheusPinned holds WritePrometheus's bytes over registries the
// traced-run pin does not reach, and keeps the mixed-kind family an error.
func TestPrometheusPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		r    *Registry
		want string
	}{
		{"hand-built", pinnedPromRegistry(), "ec216244fb003c32520e04f781f141d37ade2b4ff2b444a36cc3d28bf7d24bc1"},
		{"empty", NewRegistry(), "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
	} {
		var buf bytes.Buffer
		if err := WritePrometheus(&buf, tc.r); err != nil {
			t.Fatalf("%s: WritePrometheus: %v", tc.name, err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != tc.want {
			t.Errorf("%s registry exports digest %s, want %s\n%s", tc.name, got, tc.want, buf.Bytes())
		}
	}

	mixed := NewRegistry()
	mixed.Counter(Labeled("pin_mixed", "k", "a")).Inc()
	mixed.Gauge(Labeled("pin_mixed", "k", "b")).Set(1)
	err := WritePrometheus(io.Discard, mixed)
	if want := `obs: family "pin_mixed" mixes counter and gauge series`; err == nil || err.Error() != want {
		t.Errorf("a family of a counter and a gauge exports with error %v, want %q", err, want)
	}
}

// promRejects are expositions ParsePrometheus must reject.
var promRejects = []struct{ name, in string }{
	{"value without TYPE", "orphan_total 3\n"},
	{"malformed comment", "# NOPE x y\n"},
	{"bad value", "# TYPE a gauge\na zero\n"},
	{"trailing timestamp", "# TYPE a gauge\na 1 1234567\n"},
	{"duplicate series", "# TYPE a gauge\na 1\na 2\n"},
	{"duplicate TYPE", "# TYPE a gauge\n# TYPE a gauge\n"},
	{"unterminated labels", "# TYPE a counter\na{x=\"1 2\n"},
	{"unquoted label", "# TYPE a counter\na{x=1} 2\n"},
	{"bad metric name", "# TYPE a counter\n1a 2\n"},
}

func TestParsePrometheusStrict(t *testing.T) {
	for _, tc := range promRejects {
		if _, err := ParsePrometheus(strings.NewReader(tc.in)); err == nil {
			t.Errorf("%s: ParsePrometheus accepted %q", tc.name, tc.in)
		}
	}

	// HELP lines and blank lines are tolerated (other exporters emit them).
	ok := "# HELP a something\n# TYPE a gauge\n\na 1\n"
	if _, err := ParsePrometheus(strings.NewReader(ok)); err != nil {
		t.Errorf("ParsePrometheus rejected valid exposition: %v", err)
	}
}

// TestMergeLabels checks that a bucket line's le label joins the series' own
// label block, or stands alone in one when the series has none.
func TestMergeLabels(t *testing.T) {
	r := NewRegistry()
	r.Histogram("plain_seconds", []float64{1})
	r.Histogram(Labeled("flowed_seconds", "flow", "0"), []float64{1})
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, r); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"plain_seconds_bucket{le=\"1\"} 0\n", "flowed_seconds_bucket{flow=\"0\",le=\"+Inf\"} 0\n"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("export lacks the line %q:\n%s", want, buf.Bytes())
		}
	}
}

// The exporters used to allocate per event (a marshalled struct, a map of
// args, a decoder); now only per call. The ceilings are per whole export of
// 4096 events, with room for a bufio.Writer, the line buffer and a map of
// open fault windows, and none for anything that grows with the trace.
func TestExportAllocCeilings(t *testing.T) {
	events := cityLossShapedEvents(4096)
	withStr := 0
	for _, e := range events {
		if e.Str != "" {
			withStr++
		}
	}
	if withStr == 0 {
		t.Fatal("the trace has no event with a str: the reader's ceiling would not cover one")
	}
	if n := testing.AllocsPerRun(10, func() {
		if err := WriteJSONL(io.Discard, events); err != nil {
			t.Fatal(err)
		}
	}); n > 8 {
		t.Errorf("WriteJSONL of %d events allocates %v times, want <= 8", len(events), n)
	}
	if n := testing.AllocsPerRun(10, func() {
		if err := WriteChromeTrace(io.Discard, events); err != nil {
			t.Fatal(err)
		}
	}); n > 8 {
		t.Errorf("WriteChromeTrace of %d events allocates %v times, want <= 8", len(events), n)
	}

	var jsonl bytes.Buffer
	if err := WriteJSONL(&jsonl, events); err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(nil)
	// One string per event that has one; the scanner and its buffer; a chunk
	// per readChunk events, the list of them doubling as it grows; the result.
	chunks := len(events)/readChunk + 1
	ceiling := float64(withStr + 4 + chunks + bits.Len(uint(chunks)) + 1)
	if n := testing.AllocsPerRun(10, func() {
		r.Reset(jsonl.Bytes())
		if back, err := ReadJSONL(r); err != nil || len(back) != len(events) {
			t.Fatalf("ReadJSONL: %d events, %v", len(back), err)
		}
	}); n > ceiling {
		t.Errorf("ReadJSONL of %d events (%d with a str) allocates %v times, want <= %v", len(events), withStr, n, ceiling)
	}

	// WritePrometheus: the snapshot's four slices, the bufio.Writer's buffer
	// and the line buffer, whether a family holds 64 series or 640; one more
	// per family is allowed for grouping.
	const promCeiling, families = 6, 1
	var promAllocs [2]float64
	for i, series := range []int{64, 640} {
		reg := NewRegistry()
		for j := 0; j < series; j++ {
			h := reg.Histogram(Labeled("export_seconds", "flow", strconv.Itoa(j), "run", "42"), DelayBuckets)
			h.Observe(float64(j) / 1000)
		}
		promAllocs[i] = testing.AllocsPerRun(10, func() {
			if err := WritePrometheus(io.Discard, reg); err != nil {
				t.Fatal(err)
			}
		})
		if promAllocs[i] > promCeiling+families {
			t.Errorf("WritePrometheus of one family of %d histograms allocates %v times, want <= %d", series, promAllocs[i], promCeiling+families)
		}
	}
	if promAllocs[0] != promAllocs[1] {
		t.Errorf("WritePrometheus allocates %v times for 64 histograms and %v for 640, want the same", promAllocs[0], promAllocs[1])
	}

	// Labeled: one allocation per name, the string itself.
	flow, run := "17", "1234567"
	if n := testing.AllocsPerRun(100, func() {
		_ = Labeled("verus_window_pkts", "flow", flow, "run", run)
	}); n != 1 {
		t.Errorf("Labeled allocates %v times per name, want 1", n)
	}
}
