package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestParseOnlyAcceptsKnownIDs(t *testing.T) {
	want, err := parseOnly("fig8, TABLE1 ,sensitivity")
	if err != nil {
		t.Fatalf("parseOnly: %v", err)
	}
	for _, id := range []string{"fig8", "table1", "sensitivity"} {
		if !want[id] {
			t.Errorf("id %q not selected: %v", id, want)
		}
	}
	if len(want) != 3 {
		t.Errorf("selected %d ids, want 3: %v", len(want), want)
	}
}

func TestParseOnlyEmptySelectsAll(t *testing.T) {
	want, err := parseOnly("")
	if err != nil {
		t.Fatalf("parseOnly(\"\"): %v", err)
	}
	if len(want) != 0 {
		t.Errorf("empty -only must yield the empty (= all) set, got %v", want)
	}
}

func TestParseOnlyRejectsTypoBeforeAnyWork(t *testing.T) {
	// The original bug: "fig8,figure9" ran fig8 to completion before the
	// typo was reported. parseOnly must fail up front instead.
	_, err := parseOnly("fig8,figure9")
	if err == nil {
		t.Fatal("typo id accepted")
	}
	if !strings.Contains(err.Error(), `"figure9"`) {
		t.Errorf("error does not name the bad id: %v", err)
	}
	if !strings.Contains(err.Error(), "fig15") {
		t.Errorf("error does not list known ids: %v", err)
	}
}

func TestParseFaults(t *testing.T) {
	if got, err := parseFaults(""); err != nil || got != nil {
		t.Errorf("parseFaults(\"\") = %v, %v; want nil, nil", got, err)
	}
	all, err := parseFaults("ALL")
	if err != nil || len(all) != 3 {
		t.Errorf("parseFaults(\"ALL\") = %v, %v; want the 3 canned scenarios", all, err)
	}
	one, err := parseFaults(" tunnel-outage ")
	if err != nil || len(one) != 1 || one[0] != "tunnel-outage" {
		t.Errorf("parseFaults(\"tunnel-outage\") = %v, %v", one, err)
	}
	// A typo must fail before any experiment runs, like -only.
	if _, err := parseFaults("tunel-outage"); err == nil {
		t.Error("typo scenario accepted")
	} else if !strings.Contains(err.Error(), "highway-handover") {
		t.Errorf("error does not list valid scenarios: %v", err)
	}
}

func TestOpenObsOutputsValidatesUpFront(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "t.jsonl")
	promPath := filepath.Join(dir, "m.prom")
	files, err := openObsOutputs(tracePath, promPath)
	if err != nil {
		t.Fatalf("openObsOutputs: %v", err)
	}
	if files.trace == nil || files.metrics == nil {
		t.Fatalf("wrong slots opened: %+v", files)
	}
	files.trace.Close()
	files.metrics.Close()
	for _, p := range []string{tracePath, promPath} {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("output %s not created up front: %v", p, err)
		}
	}

	// A bad path must fail before any experiment runs (main exits 2 on it),
	// and the error must name the flag.
	_, err = openObsOutputs(filepath.Join(dir, "no/such/dir/t.jsonl"), "")
	if err == nil {
		t.Fatal("unwritable -trace path accepted")
	}
	if !strings.Contains(err.Error(), "-trace") {
		t.Errorf("error does not name the flag: %v", err)
	}
	_, err = openObsOutputs("", filepath.Join(dir, "no/such/dir/m.prom"))
	if err == nil || !strings.Contains(err.Error(), "-metrics") {
		t.Errorf("unwritable -metrics path: err = %v", err)
	}
}

func TestWriteObsOutputsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	tracer := obs.NewTracer(16)
	tracer.Emit(obs.Event{At: time.Millisecond, Kind: obs.KindVerusEpoch, Run: 3, V0: 0.1, V1: 0.05, V2: 12, V3: 4})
	registry := obs.NewRegistry()
	registry.Counter("verus_epochs_total").Inc()

	files, err := openObsOutputs(filepath.Join(dir, "t.jsonl"), filepath.Join(dir, "m.prom"))
	if err != nil {
		t.Fatal(err)
	}
	if err := writeObsOutputs(files, tracer, registry); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(filepath.Join(dir, "t.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := obs.ReadJSONL(f)
	if err != nil {
		t.Fatalf("exported trace does not round-trip: %v", err)
	}
	if len(events) != 1 || events[0].Kind != obs.KindVerusEpoch {
		t.Errorf("round-tripped events = %+v", events)
	}

	mf, err := os.Open(filepath.Join(dir, "m.prom"))
	if err != nil {
		t.Fatal(err)
	}
	defer mf.Close()
	m, err := obs.ParsePrometheus(mf)
	if err != nil {
		t.Fatalf("exported metrics do not round-trip: %v", err)
	}
	if m.Values["verus_epochs_total"] != 1 {
		t.Errorf("metrics values = %v", m.Values)
	}
}
