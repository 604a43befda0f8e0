package cellular

import (
	"math"
	"testing"
	"time"

	"repro/internal/trace"
)

func TestTechAndOperatorStrings(t *testing.T) {
	if Tech3G.String() != "3G" || TechLTE.String() != "LTE" {
		t.Error("tech names wrong")
	}
	if OperatorA.String() != "OpA" || OperatorB.String() != "OpB" {
		t.Error("operator names wrong")
	}
	if Tech(99).String() == "" || Operator(99).String() == "" {
		t.Error("unknown values should still stringify")
	}
}

func TestParseNames(t *testing.T) {
	for _, sc := range Scenarios() {
		if got, err := ParseScenario(sc.Name); err != nil || got != sc {
			t.Errorf("ParseScenario(%q) = %v, %v", sc.Name, got.Name, err)
		}
	}
	if tech, err := ParseTech("LTE"); err != nil || tech != TechLTE {
		t.Errorf("ParseTech(LTE) = %v, %v", tech, err)
	}
	if tech, err := ParseTech("3g"); err != nil || tech != Tech3G {
		t.Errorf("ParseTech(3g) = %v, %v", tech, err)
	}
	if op, err := ParseOperator("A"); err != nil || op != OperatorA {
		t.Errorf("ParseOperator(A) = %v, %v", op, err)
	}
	if op, err := ParseOperator("b"); err != nil || op != OperatorB {
		t.Errorf("ParseOperator(b) = %v, %v", op, err)
	}
	if _, err := ParseScenario("moon"); err == nil {
		t.Error("ParseScenario accepted an unknown name")
	}
	if _, err := ParseTech("5g"); err == nil {
		t.Error("ParseTech accepted an unknown name")
	}
	if _, err := ParseOperator("z"); err == nil {
		t.Error("ParseOperator accepted an unknown name")
	}
}

func TestScenarioList(t *testing.T) {
	scs := Scenarios()
	if len(scs) != 7 {
		t.Fatalf("scenarios = %d, want 7 (per §5.3)", len(scs))
	}
	seen := map[string]bool{}
	for _, s := range scs {
		if s.Name == "" || seen[s.Name] {
			t.Fatalf("duplicate or empty scenario name %q", s.Name)
		}
		seen[s.Name] = true
		if s.SlowTau <= 0 || s.SlowSigmaDB <= 0 || s.RateFactor <= 0 {
			t.Fatalf("scenario %q has non-positive parameters", s.Name)
		}
	}
}

func TestMobilityShortensCoherence(t *testing.T) {
	if HighwayDriving.SlowTau >= CampusStationary.SlowTau {
		t.Error("driving should have shorter coherence than stationary")
	}
	if HighwayDriving.SlowSigmaDB <= CampusStationary.SlowSigmaDB {
		t.Error("driving should have wider fading than stationary")
	}
}

func TestTraceMeanRateMatchesConfig(t *testing.T) {
	// The slow fade has a 20 s coherence time, so short traces legitimately
	// wander from the configured mean; average over a long horizon.
	for _, tech := range []Tech{Tech3G, TechLTE} {
		m := NewModel(Config{Tech: tech, Scenario: CampusStationary, Seed: 1})
		tr := m.Trace(6 * time.Minute)
		if err := tr.Validate(); err != nil {
			t.Fatalf("%v: invalid trace: %v", tech, err)
		}
		got := tr.MeanMbps()
		want := m.MeanMbps()
		if math.Abs(got-want)/want > 0.25 {
			t.Errorf("%v: mean rate %v Mbps, want within 25%% of %v", tech, got, want)
		}
	}
}

func TestMeanMbpsOverride(t *testing.T) {
	m := NewModel(Config{Tech: Tech3G, Scenario: CampusStationary, MeanMbps: 20, Seed: 1})
	if got := m.MeanMbps(); math.Abs(got-20) > 1e-9 {
		t.Fatalf("override = %v, want 20", got)
	}
	tr := m.Trace(30 * time.Second)
	if got := tr.MeanMbps(); math.Abs(got-20)/20 > 0.3 {
		t.Fatalf("generated %v Mbps, want ~20", got)
	}
}

func TestDefaultScenarioApplied(t *testing.T) {
	m := NewModel(Config{Tech: TechLTE, Seed: 3})
	tr := m.Trace(time.Second)
	if tr.Name == "" {
		t.Fatal("trace should be named")
	}
}

func TestDeterminism(t *testing.T) {
	a := NewModel(Config{Tech: TechLTE, Scenario: CityDriving, Seed: 42}).Trace(5 * time.Second)
	b := NewModel(Config{Tech: TechLTE, Scenario: CityDriving, Seed: 42}).Trace(5 * time.Second)
	if len(a.Ops) != len(b.Ops) {
		t.Fatalf("same seed, different op counts: %d vs %d", len(a.Ops), len(b.Ops))
	}
	for i := range a.Ops {
		if a.Ops[i] != b.Ops[i] {
			t.Fatalf("same seed diverges at op %d", i)
		}
	}
	c := NewModel(Config{Tech: TechLTE, Scenario: CityDriving, Seed: 43}).Trace(5 * time.Second)
	if len(c.Ops) == len(a.Ops) {
		same := true
		for i := range a.Ops {
			if a.Ops[i] != c.Ops[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical traces")
		}
	}
}

func TestSuccessiveSegmentsDiffer(t *testing.T) {
	m := NewModel(Config{Tech: Tech3G, Scenario: CampusStationary, Seed: 7})
	a := m.Trace(2 * time.Second)
	b := m.Trace(2 * time.Second)
	if len(a.Ops) == 0 || len(b.Ops) == 0 {
		t.Fatal("empty segments")
	}
	if len(a.Ops) == len(b.Ops) && a.Ops[0] == b.Ops[0] && a.Ops[len(a.Ops)-1] == b.Ops[len(b.Ops)-1] {
		t.Fatal("successive segments look identical; fading state not continued")
	}
}

func TestLTEBurstsSmallerAndMoreFrequentThan3G(t *testing.T) {
	// Paper Fig. 2: "The LTE networks exhibit more frequent smaller bursts."
	dur := 60 * time.Second
	tr3 := NewModel(Config{Tech: Tech3G, Operator: OperatorB, Scenario: CampusStationary, MeanMbps: 8, Seed: 5}).Trace(dur)
	trL := NewModel(Config{Tech: TechLTE, Operator: OperatorB, Scenario: CampusStationary, MeanMbps: 8, Seed: 5}).Trace(dur)
	s3, ia3 := BurstStats(tr3, 200*time.Microsecond)
	sL, iaL := BurstStats(trL, 200*time.Microsecond)
	if mean(s3) <= mean(sL) {
		t.Errorf("3G bursts (%.0f B) should exceed LTE bursts (%.0f B)", mean(s3), mean(sL))
	}
	if meanDur(ia3) <= meanDur(iaL) {
		t.Errorf("3G inter-arrival (%v) should exceed LTE (%v)", meanDur(ia3), meanDur(iaL))
	}
}

func TestMobilityWidensBurstVariability(t *testing.T) {
	// Paper §3: "mobility causes both burst size and inter-arrival times to
	// vary more widely." Compare coefficient of variation of windowed rate.
	dur := 120 * time.Second
	stat := NewModel(Config{Tech: Tech3G, Scenario: CampusStationary, MeanMbps: 10, Seed: 9}).Trace(dur)
	drive := NewModel(Config{Tech: Tech3G, Scenario: HighwayDriving, MeanMbps: 10, Seed: 9}).Trace(dur)
	cvS := cv(stat.WindowedMbps(500 * time.Millisecond))
	cvD := cv(drive.WindowedMbps(500 * time.Millisecond))
	if cvD <= cvS {
		t.Errorf("driving CV (%.3f) should exceed stationary CV (%.3f)", cvD, cvS)
	}
}

func TestBurstStatsMergesWithinGap(t *testing.T) {
	tr := &trace.Trace{Duration: time.Second, Ops: []trace.Opportunity{
		{At: 0, Bytes: 100},
		{At: 50 * time.Microsecond, Bytes: 200}, // merged
		{At: 10 * time.Millisecond, Bytes: 300}, // new burst
		{At: 30 * time.Millisecond, Bytes: 400}, // new burst
	}}
	sizes, ia := BurstStats(tr, time.Millisecond)
	if len(sizes) != 3 {
		t.Fatalf("bursts = %d, want 3", len(sizes))
	}
	if sizes[0] != 300 {
		t.Fatalf("merged burst = %v, want 300", sizes[0])
	}
	if len(ia) != 2 || ia[0] != 10*time.Millisecond || ia[1] != 20*time.Millisecond {
		t.Fatalf("interarrivals = %v", ia)
	}
}

func TestBurstStatsEmpty(t *testing.T) {
	s, ia := BurstStats(&trace.Trace{}, time.Millisecond)
	if s != nil || ia != nil {
		t.Fatal("empty trace should yield nil stats")
	}
}

func TestBurstSizesVary(t *testing.T) {
	// The channel must be bursty: burst sizes should have high dispersion
	// (paper: "variable burst sizes and burst inter-arrival periods").
	tr := NewModel(Config{Tech: Tech3G, Scenario: CampusStationary, Seed: 11}).Trace(60 * time.Second)
	sizes, ia := BurstStats(tr, 200*time.Microsecond)
	if len(sizes) < 100 {
		t.Fatalf("too few bursts: %d", len(sizes))
	}
	if cv(sizes) < 0.3 {
		t.Errorf("burst size CV = %.3f, want bursty (>0.3)", cv(sizes))
	}
	iaF := make([]float64, len(ia))
	for i, d := range ia {
		iaF[i] = d.Seconds()
	}
	if cv(iaF) < 0.3 {
		t.Errorf("inter-arrival CV = %.3f, want bursty (>0.3)", cv(iaF))
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func meanDur(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s / time.Duration(len(ds))
}

func cv(xs []float64) float64 {
	m := mean(xs)
	if m == 0 {
		return 0
	}
	var v float64
	for _, x := range xs {
		v += (x - m) * (x - m)
	}
	v /= float64(len(xs))
	return math.Sqrt(v) / m
}
