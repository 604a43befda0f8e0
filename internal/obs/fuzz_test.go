package obs

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// FuzzReadJSONL aims arbitrary bytes at the trace reader. It may not panic.
// It may not allocate more than four times the input and 64 KB: the
// scanner's buffer starts at 32 KB and doubles to hold the longest line
// (under twice the line in all), a str costs its own length, and a 104-byte
// Event is held twice, in its chunk and in the result, for a line of at
// least 55 bytes; the first chunk is 27 KB. Whatever it accepts, the
// encoding/json reader it replaced must accept too, with the same events
// (the reverse does not hold: that reader let a good deal through), and
// writing those events and reading them again must return them.
func FuzzReadJSONL(f *testing.F) {
	for _, events := range [][]Event{sampleEvents(), ckptAttribEvents()} {
		var buf bytes.Buffer
		if err := WriteJSONL(&buf, events); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	// The most events per byte: the shortest line there is, one past a chunk
	// and many chunks' worth.
	const shortest = `{"seq":0,"at_ns":0,"kind":"net.drop","flow":0,"run":0}` + "\n"
	f.Add([]byte(strings.Repeat(shortest, readChunk+1)))
	f.Add([]byte(strings.Repeat(shortest, 40*readChunk+1)))
	// The longest line the scanner takes, and one byte more.
	f.Add([]byte(lineOfLen(1<<20-1) + "\n"))
	f.Add([]byte(lineOfLen(1<<20) + "\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		budget := uint64(4*len(data) + 64<<10)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		events, err := ReadJSONL(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n > budget {
			t.Fatalf("reading %d bytes allocated %d", len(data), n)
		}
		if err != nil {
			if events != nil {
				t.Fatalf("an error and %d events", len(events))
			}
			return
		}
		ref, err := refReadJSONL(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("accepted what the encoding/json reader rejects: %v", err)
		}
		if !reflect.DeepEqual(events, ref) {
			t.Fatalf("read %+v\nthe encoding/json reader %+v", events, ref)
		}
		var buf bytes.Buffer
		if err := WriteJSONL(&buf, events); err != nil {
			t.Fatalf("cannot write what was read: %v", err)
		}
		back, err := ReadJSONL(&buf)
		if err != nil || !reflect.DeepEqual(back, events) {
			t.Fatalf("wrote %+v\nread back %+v, %v", events, back, err)
		}
	})
}

// lineOfLen returns a valid line n bytes long, nearly all of it str.
func lineOfLen(n int) string {
	const head, tail = `{"seq":0,"at_ns":0,"kind":"net.drop","flow":0,"run":1,"str":"`, `"}`
	return head + strings.Repeat("a", n-len(head)-len(tail)) + tail
}

// The seeds above run under plain `go test` too, but say nothing about
// which side of the line limit they fell on; this does.
func TestReadJSONLLineLimit(t *testing.T) {
	events, err := ReadJSONL(strings.NewReader(lineOfLen(1<<20-1) + "\n"))
	if err != nil || len(events) != 1 || len(events[0].Str) < 1<<20-100 {
		t.Fatalf("a line of 1 MiB - 1: %d events, %v", len(events), err)
	}
	if _, err := ReadJSONL(strings.NewReader(lineOfLen(1<<20) + "\n")); err == nil || !strings.HasPrefix(err.Error(), "obs: jsonl: ") {
		t.Fatalf("a line of 1 MiB: error %v, want the scanner's", err)
	}
}

// FuzzParsePrometheus aims arbitrary bytes at the exposition parser, which
// verus-obs runs on user-supplied .prom files. It may not panic, and it
// returns metrics or an error, never both. Besides the bytes, every run
// renders the registry seed builds, and WritePrometheus's output must parse
// back to exactly what Snapshot holds: each family's type, and each series'
// value bit for bit.
func FuzzParsePrometheus(f *testing.F) {
	for seed := int64(0); seed < 4; seed++ {
		var buf bytes.Buffer
		if err := WritePrometheus(&buf, seededRegistry(seed)); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes(), seed)
	}
	for i, c := range promRejects {
		f.Add([]byte(c.in), int64(i))
	}
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		if pm, err := ParsePrometheus(bytes.NewReader(data)); (pm == nil) == (err == nil) {
			t.Fatalf("metrics %+v and error %v", pm, err)
		}
		r := seededRegistry(seed)
		var buf bytes.Buffer
		if err := WritePrometheus(&buf, r); err != nil {
			t.Fatal(err)
		}
		pm, err := ParsePrometheus(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("seed %d: our own exposition rejected: %v\n%s", seed, err, buf.Bytes())
		}
		types, values := exposedSeries(r.Snapshot())
		if !reflect.DeepEqual(pm.Types, types) {
			t.Fatalf("seed %d: types %v, want %v", seed, pm.Types, types)
		}
		if len(pm.Values) != len(values) {
			t.Fatalf("seed %d: %d series, want %d\n%s", seed, len(pm.Values), len(values), buf.Bytes())
		}
		for name, want := range values {
			if got, ok := pm.Values[name]; !ok || math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d: %s = %v (present %v), want %v\n%s", seed, name, got, ok, want, buf.Bytes())
			}
		}
	})
}

// seededRegistry builds a registry from seed: counters, gauges and
// histograms in families of their own kind, each series unlabeled or with
// label values that need escaping, gauges at ±0, ±Inf, NaN and the smallest
// subnormal among others, histograms observing NaN and ±Inf among others.
func seededRegistry(seed int64) *Registry {
	rng := rand.New(rand.NewSource(seed))
	r := NewRegistry()
	alphabet := []rune("ab \"\\\n{},=é")
	name := func(family string) string {
		if rng.Intn(3) == 0 {
			return family
		}
		var v []rune
		for k := rng.Intn(6); k > 0; k-- {
			v = append(v, alphabet[rng.Intn(len(alphabet))])
		}
		return Labeled(family, "flow", fmt.Sprint(rng.Intn(4)), "path", string(v))
	}
	specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 5e-324, math.MaxFloat64}
	for fam := 0; fam < 1+rng.Intn(3); fam++ {
		for n := 1 + rng.Intn(3); n > 0; n-- {
			r.Counter(name(fmt.Sprintf("c%d_total", fam))).Add(rng.Int63n(1 << 60))
		}
		for n := 1 + rng.Intn(3); n > 0; n-- {
			v := rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
			if rng.Intn(2) == 0 {
				v = specials[rng.Intn(len(specials))]
			}
			r.Gauge(name(fmt.Sprintf("g%d", fam))).Set(v)
		}
		for n := 1 + rng.Intn(2); n > 0; n-- {
			var bounds []float64
			for b, k := rng.Float64(), rng.Intn(5); k > 0; k-- {
				bounds = append(bounds, b)
				b += rng.Float64() * 10
			}
			h := r.Histogram(name(fmt.Sprintf("h%d_seconds", fam)), bounds)
			for k := rng.Intn(50); k > 0; k-- {
				v := rng.ExpFloat64() * 5
				if rng.Intn(20) == 0 {
					v = specials[rng.Intn(len(specials))]
				}
				h.Observe(v)
			}
		}
	}
	return r
}

// exposedSeries is what the text format exposes for samples: each family's
// type, and each series' value, a histogram's as cumulative le buckets ending
// in +Inf, a sum and a count.
func exposedSeries(samples []Sample) (map[string]string, map[string]float64) {
	types, values := make(map[string]string), make(map[string]float64)
	for _, s := range samples {
		fam, block, _ := strings.Cut(s.Name, "{")
		types[fam] = fmt.Sprint(s.Kind)
		if s.Kind != KindHistogram {
			values[s.Name] = s.Value
			continue
		}
		labels := strings.TrimSuffix(block, "}")
		le := func(bound string) string {
			if labels == "" {
				return fam + `_bucket{le="` + bound + `"}`
			}
			return fam + "_bucket{" + labels + `,le="` + bound + `"}`
		}
		for i, b := range s.BucketBounds {
			values[le(strconv.FormatFloat(b, 'g', -1, 64))] = float64(s.Buckets[i])
		}
		values[le("+Inf")] = float64(s.Count)
		suffix := ""
		if labels != "" {
			suffix = "{" + labels + "}"
		}
		values[fam+"_sum"+suffix] = s.Sum
		values[fam+"_count"+suffix] = float64(s.Count)
	}
	return types, values
}
