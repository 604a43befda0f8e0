package experiments

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/snap"
	"repro/internal/trace"
)

// buildTraceDumbbell is the half of the component set buildGoldenDumbbell
// leaves out: Verus, Cubic and Sprout over a looping TraceLink with a
// DropTail queue small enough to drop.
func buildTraceDumbbell() *netsim.Dumbbell {
	sim := netsim.NewSim()
	tr := &trace.Trace{Name: "fuzz", Duration: 50 * time.Millisecond}
	for at := time.Millisecond; at < tr.Duration; at += time.Millisecond {
		tr.Ops = append(tr.Ops, trace.Opportunity{At: at, Bytes: 1000 + 40*int(at/time.Millisecond)})
	}
	return netsim.NewDumbbell(sim, func(dst netsim.Receiver) netsim.Link {
		return netsim.NewTraceLink(sim, netsim.NewDropTail(30_000), tr, 15*time.Millisecond, dst, true, 9)
	}, MTU, []netsim.FlowSpec{
		{Ctrl: VerusMaker(6).New(), AckDelay: 10 * time.Millisecond},
		{Ctrl: CubicMaker().New(), AckDelay: 12 * time.Millisecond, Start: 50 * time.Millisecond},
		{Ctrl: SproutMaker().New(), AckDelay: 8 * time.Millisecond, Start: 120 * time.Millisecond},
	})
}

// fuzzTopologies are the rebuilds FuzzTrialRestore loads onto, each with the
// barrier its valid seed payload is taken at. Between them they hold every
// component kind a Dumbbell can.
var fuzzTopologies = []struct {
	build   func() *netsim.Dumbbell
	barrier time.Duration
}{
	{func() *netsim.Dumbbell { d, _ := buildGoldenDumbbell(); return d }, 2890 * time.Millisecond},
	{buildTraceDumbbell, 1500 * time.Millisecond},
}

// trialPayload runs topology kind to its barrier and returns the snapshot
// payload, framing stripped.
func trialPayload(tb testing.TB, kind int) []byte {
	tb.Helper()
	d := fuzzTopologies[kind].build()
	d.Run(fuzzTopologies[kind].barrier)
	e := snap.NewEncoder()
	d.Snapshot(e)
	framed, err := e.Encode(snap.Version)
	if err != nil {
		tb.Fatal(err)
	}
	return framed[len(snap.Magic)+4 : len(framed)-4]
}

// frameSnapshot wraps payload in a correct header and CRC trailer, so the
// checksum cannot shield the component loads from hostile bytes the way it
// shields them from bit rot.
func frameSnapshot(payload []byte) []byte {
	out := append([]byte(snap.Magic), 0, 0, 0, 0)
	binary.LittleEndian.PutUint32(out[len(snap.Magic):], snap.Version)
	out = append(out, payload...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
}

// FuzzTrialRestore aims mutated trial snapshots at a whole-trial restore:
// every component's load, the packet rematerialization and the heap's id
// resolution, over a freshly rebuilt topology. Whatever the bytes,
// the restore may fail but not panic, and may not allocate more than a small
// multiple of the input: a count in the file is a claim about bytes present,
// never a size to allocate on trust. The seeds are each topology's valid
// payload, taken fresh so that they track the format; the committed corpus
// holds hostile edits of them: counts at their maximum, an RNG position past
// the replay bound, a trace position past the trace.
func FuzzTrialRestore(f *testing.F) {
	for kind := range fuzzTopologies {
		f.Add(uint8(kind), trialPayload(f, kind))
	}
	f.Fuzz(func(t *testing.T, kind uint8, payload []byte) {
		fresh := fuzzTopologies[int(kind)%len(fuzzTopologies)].build()
		framed := frameSnapshot(payload)
		var loadErr error
		allocated := allocBytes(func() {
			d, err := snap.Decode(framed, snap.Version)
			if err != nil {
				t.Fatalf("correctly framed payload rejected: %v", err)
			}
			fresh.Restore(d)
			loadErr = d.Done()
		})
		if budget := uint64(8*len(framed) + 64<<10); allocated > budget {
			t.Fatalf("restoring %d bytes allocated %d (load error: %v)", len(framed), allocated, loadErr)
		}
	})
}

// TestFuzzSeedsRestoreClean keeps the fuzz target honest: the valid payload
// of each topology must load to the last byte, or every mutation of it would
// be rejected at the first field and the fuzzer would explore nothing.
func TestFuzzSeedsRestoreClean(t *testing.T) {
	for kind, topo := range fuzzTopologies {
		d, err := snap.Decode(frameSnapshot(trialPayload(t, kind)), snap.Version)
		if err != nil {
			t.Fatal(err)
		}
		fresh := topo.build()
		fresh.Restore(d)
		if err := d.Done(); err != nil {
			t.Errorf("topology %d: valid payload rejected: %v", kind, err)
		}
		if fresh.Sim.Pending() == 0 || fresh.Sim.PoolStats().Live() == 0 {
			t.Errorf("topology %d: barrier holds no pending events or live packets", kind)
		}
	}
}

// corpusTargets names, for each committed FuzzTrialRestore entry, the field
// its hostile edit aims at and the error its load must end in. Each entry is
// a valid payload cut short just past one edited field, so the error text —
// offset included — says how far the load got: a layout change that moves the
// field, or fails the load before it, changes the text.
var corpusTargets = map[string]struct{ field, err string }{
	"free-list-depth-maxuint32": {"packet pool free-list depth",
		"snap: need 4 bytes at offset 75, have 0: snap: truncated snapshot"},
	"heap-count-maxuint32": {"event heap count",
		"snap: need 8 bytes at offset 6927, have 0: snap: truncated snapshot"},
	"inflight-count-maxuint32": {"in-flight entry count",
		"snap: need 8 bytes at offset 627, have 0: snap: truncated snapshot"},
	"rng-draws-2e40": {"RNG draw count",
		"snap: RNG draw count 1099511627776 exceeds replay bound"},
	"tracelink-opidx-past-trace": {"trace opportunity index",
		"netsim: trace link snapshot at opportunity 1048576 of 49 with 0 head bytes served"},
}

// readCorpusEntry parses a "go test fuzz v1" file holding FuzzTrialRestore's
// two arguments: the topology byte and the payload.
func readCorpusEntry(t *testing.T, path string) (kind uint8, payload []byte) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) != 3 || lines[0] != "go test fuzz v1" {
		t.Fatalf("%s: not a two-argument fuzz corpus entry", path)
	}
	k, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "byte("), ")"))
	if err != nil || len(k) != 1 {
		t.Fatalf("%s: bad topology line %q", path, lines[1])
	}
	p, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[2], "[]byte("), ")"))
	if err != nil {
		t.Fatalf("%s: bad payload line: %v", path, err)
	}
	return k[0], []byte(p)
}

// TestFuzzCorpusHitsItsTarget loads every committed FuzzTrialRestore entry
// as the fuzz target frames it and requires the error the entry was built to
// provoke. Without it a format change that shifts a field leaves an entry
// failing somewhere earlier, still "no panic", and the corpus stops covering
// the check it was committed for.
func TestFuzzCorpusHitsItsTarget(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzTrialRestore")
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != len(corpusTargets) {
		t.Errorf("corpus holds %d entries, corpusTargets names %d", len(ents), len(corpusTargets))
	}
	for _, e := range ents {
		want, ok := corpusTargets[e.Name()]
		if !ok {
			t.Errorf("corpus entry %s has no target in corpusTargets", e.Name())
			continue
		}
		kind, payload := readCorpusEntry(t, filepath.Join(dir, e.Name()))
		d, err := snap.Decode(frameSnapshot(payload), snap.Version)
		if err != nil {
			t.Fatal(err)
		}
		fuzzTopologies[int(kind)%len(fuzzTopologies)].build().Restore(d)
		if got := d.Done(); got == nil || got.Error() != want.err {
			t.Errorf("%s (aimed at the %s): load error %v, want %q", e.Name(), want.field, got, want.err)
		}
	}
}
