package obs

import (
	"bytes"
	"reflect"
	"runtime"
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
