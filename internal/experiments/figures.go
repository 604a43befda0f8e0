package experiments

import (
	"time"

	"repro/internal/cellular"
	"repro/internal/faults"
	"repro/internal/obs"
)

// Scale picks the run lengths of every Figures row.
type Scale int

const (
	Golden Scale = iota // the golden digest tests: the smallest runs the clamps allow
	Quick               // verus-bench -quick
	Full                // the paper's scale
)

// scales gives each Scale its run lengths.
var scales = [...]struct {
	macroDur                time.Duration
	macroReps               int
	microDur                time.Duration
	fig2, fig7, sensitivity time.Duration
}{
	Golden: {8 * time.Second, 2, 12 * time.Second, 10 * time.Second, 60 * time.Second, 8 * time.Second},
	Quick:  {20 * time.Second, 1, 100 * time.Second, 45 * time.Second, 60 * time.Second, 20 * time.Second},
	Full:   {2 * time.Minute, 5, 500 * time.Second, 5 * time.Minute, 200 * time.Second, 60 * time.Second},
}

// Setup is what a Figures row runs from. Parallel is the trial worker count
// (0 = GOMAXPROCS, 1 = serial); a non-nil Obs is shared by every trial.
// Faults names the fault scenarios to run (empty = all) and Metro is the
// metro sweep, whose Seed, Parallel and Obs the Setup's replace; the Golden
// scale ignores both.
type Setup struct {
	Scale    Scale
	Seed     int64
	Parallel int
	Obs      *obs.Observer
	Faults   []string
	Metro    MetroOptions
}

func (s Setup) macro() MacroOptions {
	l := scales[s.Scale]
	return MacroOptions{Duration: l.macroDur, Reps: l.macroReps, Seed: s.Seed, Parallel: s.Parallel, Obs: s.Obs}
}

func (s Setup) micro() MicroOptions {
	return MicroOptions{Duration: scales[s.Scale].microDur, Seed: s.Seed, Parallel: s.Parallel, Obs: s.Obs}
}

// Figure is one row of the table: its verus-bench -only id and banner title,
// the golden digest name of each render Run returns at the Golden scale, and
// whether it runs only when selected by id.
type Figure struct {
	ID, Title string
	Golden    []string
	OptIn     bool
	Run       func(Setup) ([]string, error)
}

func render(rs ...interface{ Render() string }) ([]string, error) {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.Render()
	}
	return out, nil
}

// Figures is every table and figure verus-bench renders, in run order: the
// one list that -only, the banner loop, the golden digest tests and the docs
// index test read.
var Figures = []Figure{
	{ID: "fig1", Title: "LTE burst arrivals", Run: func(s Setup) ([]string, error) { return render(Figure1(s.Seed)) }},
	{ID: "fig2", Title: "burst PDFs", Golden: []string{"Figure2"},
		Run: func(s Setup) ([]string, error) { return render(Figure2(scales[s.Scale].fig2, s.Seed, s.Parallel)) }},
	{ID: "fig3", Title: "competing traffic", Golden: []string{"Figure3"},
		Run: func(s Setup) ([]string, error) { return render(Figure3(s.Seed, s.Parallel, s.Obs)) }},
	{ID: "fig4", Title: "windowed throughput", Run: func(s Setup) ([]string, error) { return render(Figure4(s.Seed)) }},
	{ID: "predictors", Title: "§3 predictability", Run: func(s Setup) ([]string, error) { return render(PredictorStudy(s.Seed)) }},
	{ID: "fig5", Title: "delay profile", Run: func(s Setup) ([]string, error) { return render(Figure5(s.Seed)) }},
	{ID: "fig7", Title: "profile evolution",
		Run: func(s Setup) ([]string, error) { return render(Figure7(scales[s.Scale].fig7, s.Seed)) }},
	{ID: "fig8", Title: "macro comparison", Golden: []string{"Figure8"},
		Run: func(s Setup) ([]string, error) { return render(Figure8(s.macro())) }},
	{ID: "fig9", Title: "R sweep", Golden: []string{"Figure9"},
		Run: func(s Setup) ([]string, error) { return render(Figure9(s.macro())) }},
	{ID: "fig10", Title: "trace-driven contention", Golden: []string{"Figure10"},
		Run: func(s Setup) ([]string, error) { return render(Figure10(s.macro())) }},
	{ID: "table1", Title: "Jain fairness", Golden: []string{"Table1"},
		Run: func(s Setup) ([]string, error) { return render(Table1(s.macro())) }},
	{ID: "fig11", Title: "rapidly changing nets", Golden: []string{"Figure11-I", "Figure11-II"},
		Run: func(s Setup) ([]string, error) { return render(Figure11(s.micro(), false), Figure11(s.micro(), true)) }},
	{ID: "fig12", Title: "newly arriving flows", Golden: []string{"Figure12"},
		Run: func(s Setup) ([]string, error) { return render(Figure12(s.micro())) }},
	{ID: "fig13", Title: "mixed RTTs", Golden: []string{"Figure13"},
		Run: func(s Setup) ([]string, error) { return render(Figure13(s.micro())) }},
	{ID: "fig14", Title: "Verus vs Cubic", Golden: []string{"Figure14"},
		Run: func(s Setup) ([]string, error) { return render(Figure14(s.micro())) }},
	{ID: "fig15", Title: "static vs updating profile", Golden: []string{"Figure15"},
		Run: func(s Setup) ([]string, error) { return render(Figure15(s.micro())) }},
	{ID: "sensitivity", Title: "§5.3 parameters", Golden: []string{"Sensitivity"}, Run: func(s Setup) ([]string, error) {
		return render(Sensitivity(scales[s.Scale].sensitivity, s.Seed, s.Parallel, s.Obs))
	}},
	{ID: "faults", Title: "fault-injection scenarios",
		Golden: []string{"FaultTunnelOutage", "FaultHighwayHandover", "FaultCityLoss"}, Run: runFaults},
	{ID: "metro", Title: "city-scale sharded multi-cell sweep", OptIn: true, Golden: []string{"MetroLTE-sharded4",
		"Metro3G-singleheap", "MetroChurnLTE-sharded4", "MetroAttribLTE-sharded4", "MetroAttrib3G-singleheap"}, Run: runMetro},
}

// runFaults renders each selected fault scenario. The Golden scale runs all
// of them for 30 s, so the timed impairments end well inside the run and the
// recovery column is real.
func runFaults(s Setup) ([]string, error) {
	names, opts := s.Faults, s.macro()
	if s.Scale == Golden {
		names, opts.Duration, opts.Reps = nil, 30*time.Second, 1
	}
	if len(names) == 0 {
		names = faults.Names()
	}
	out := make([]string, len(names))
	for i, name := range names {
		res, err := FaultScenario(name, opts)
		if err != nil {
			return nil, err
		}
		out[i] = res.Render()
	}
	return out, nil
}

// runMetro renders the Setup's metro sweep. The Golden scale instead pins
// both sides of the executor split (LTE on 4 shards, 3G on the single heap,
// LTE with half the users churning) and the delay attribution of the first
// two, whose viol column pins the accounting identity at zero.
func runMetro(s Setup) ([]string, error) {
	sweeps := []MetroOptions{s.Metro}
	if s.Scale == Golden {
		lte := MetroOptions{Sectors: 4, FlowCounts: []int{32}, Duration: 4 * time.Second,
			Shards: 4, Tech: cellular.TechLTE, HandoverScale: 0.05}
		g3, churn := lte, lte
		g3.Tech, g3.Shards, churn.ChurnFrac = cellular.Tech3G, 0, 0.5
		sweeps = []MetroOptions{lte, g3, churn}
	}
	var out, attrib []string
	for i, o := range sweeps {
		o.Seed, o.Parallel, o.Obs = s.Seed, s.Parallel, s.Obs
		r, err := Metro(o)
		if err != nil {
			return nil, err
		}
		out = append(out, r.Render())
		if s.Scale == Golden && i < 2 {
			attrib = append(attrib, r.RenderAttribution())
		}
	}
	return append(out, attrib...), nil
}
