package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/all"
)

// lint runs the suite and prints its diagnostics to w as the binary does,
// returning the count.
func lint(w io.Writer, dir string, patterns []string, analyzers []*analysis.Analyzer) (int, error) {
	res, err := Run(dir, patterns, analyzers)
	if err != nil {
		return 0, err
	}
	writeDiags(w, res)
	return len(res.Diags), nil
}

// TestRepoIsLintClean is the acceptance smoke test: the full analyzer suite
// over the whole module must report nothing. Every suppression in the tree
// is therefore a reviewed //lint: directive with a justification.
func TestRepoIsLintClean(t *testing.T) {
	var out bytes.Buffer
	count, err := lint(&out, "../..", []string{"./..."}, all.Analyzers())
	if err != nil {
		t.Fatalf("lint: %v", err)
	}
	if count != 0 {
		t.Fatalf("repo has %d lint violation(s):\n%s", count, out.String())
	}
}

// TestLintFlagsViolations proves the binary's failure path end-to-end: a
// scratch module with one wall-clock read in a simulation-named package
// must yield a non-zero diagnostic count.
func TestLintFlagsViolations(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module scratch\n\ngo 1.22\n")
	write("netsim/clock.go", `package netsim

import "time"

func Now() time.Time { return time.Now() }
`)
	write("netsim/rand.go", `package netsim

import "math/rand"

func Draw() float64 { return rand.Float64() }
`)
	var out bytes.Buffer
	count, err := lint(&out, dir, []string{"./..."}, all.Analyzers())
	if err != nil {
		t.Fatalf("lint: %v", err)
	}
	if count != 2 {
		t.Fatalf("count = %d, want 2 (nowalltime + noglobalrand); output:\n%s", count, out.String())
	}
	for _, wantSub := range []string{"[nowalltime]", "[noglobalrand]"} {
		if !bytes.Contains(out.Bytes(), []byte(wantSub)) {
			t.Errorf("output missing %s:\n%s", wantSub, out.String())
		}
	}
}

// TestLintFlagsEveryForbidRow trips each row of the forbidden-API table,
// and poolleak's bare-literal check, once in a scratch module: the binary
// must report exactly one diagnostic per row under the row's analyzer.
func TestLintFlagsEveryForbidRow(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"go.mod":              "module scratch\n\ngo 1.22\n",
		"faults/faults.go":    "package faults\n\nfunc Names() []string { return nil }\n",
		"netsim/clock.go":     "package netsim\n\nimport \"time\"\n\nfunc Now() time.Time { return time.Now() }\n",
		"netsim/rand.go":      "package netsim\n\nimport \"math/rand\"\n\nfunc Draw() float64 { return rand.Float64() }\n",
		"netsim/fma.go":       "package netsim\n\nimport \"math\"\n\nfunc Fused(a, b, c float64) float64 { return math.FMA(a, b, c) }\n",
		"netsim/packet.go":    "package netsim\n\ntype Packet struct{ Seq int64 }\n\nfunc Bare() *Packet { return &Packet{} }\n",
		"experiments/rng.go":  "package experiments\n\nimport \"math/rand\"\n\nfunc New(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }\n",
		"transport/impair.go": "package transport\n\nimport \"scratch/faults\"\n\nfunc Plans() []string { return faults.Names() }\n",
	}
	for name, content := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var out bytes.Buffer
	count, err := lint(&out, dir, []string{"./..."}, all.Analyzers())
	if err != nil {
		t.Fatalf("lint: %v", err)
	}
	want := map[string]int{"[nowalltime]": 1, "[noglobalrand]": 2, "[floatorder]": 1, "[nofaultsinprod]": 1, "[poolleak]": 1}
	total := 0
	for name, n := range want {
		total += n
		if got := bytes.Count(out.Bytes(), []byte(name)); got != n {
			t.Errorf("%s reported %d time(s), want %d", name, got, n)
		}
	}
	if count != total {
		t.Errorf("count = %d, want %d", count, total)
	}
	if t.Failed() {
		t.Logf("output:\n%s", out.String())
	}
}

// TestLintErrorOnBadPattern pins the operational-error path (exit 2 in the
// binary): an unloadable pattern is an error, not a clean run.
func TestLintErrorOnBadPattern(t *testing.T) {
	var out bytes.Buffer
	if _, err := lint(&out, "../..", []string{"./does-not-exist/..."}, all.Analyzers()); err == nil {
		t.Fatal("expected error for nonexistent package pattern")
	}
}

// TestRunReportsTiming: Run must return one timing entry per analyzer, in
// suite order, so -timing and the CI job summary can print them without
// re-deriving the suite.
func TestRunReportsTiming(t *testing.T) {
	res, err := Run("../..", []string{"./internal/analysis/load"}, all.Analyzers())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	suite := all.Analyzers()
	if len(res.Timing) != len(suite) {
		t.Fatalf("timing entries = %d, want %d", len(res.Timing), len(suite))
	}
	for i, a := range suite {
		if res.Timing[i].Name != a.Name {
			t.Errorf("timing[%d] = %s, want %s (suite order)", i, res.Timing[i].Name, a.Name)
		}
	}
}

// TestSARIFOutput runs the suite over a scratch module with one known
// violation and checks the SARIF report parses, carries every analyzer as
// a rule (plus the directive audit's two pseudo-analyzers), and locates
// the result.
func TestSARIFOutput(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module scratch\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "netsim"), 0o755); err != nil {
		t.Fatal(err)
	}
	src := "package netsim\n\nimport \"time\"\n\nfunc Now() time.Time { return time.Now() }\n"
	if err := os.WriteFile(filepath.Join(dir, "netsim", "clock.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := Run(dir, []string{"./..."}, all.Analyzers())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	var buf bytes.Buffer
	if err := WriteSARIF(&buf, res.Fset, all.Analyzers(), res.Diags); err != nil {
		t.Fatalf("write sarif: %v", err)
	}
	var log sarifLog
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatalf("sarif output is not valid JSON: %v\n%s", err, buf.String())
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("version=%q runs=%d, want 2.1.0 with one run", log.Version, len(log.Runs))
	}
	run := log.Runs[0]
	if got, want := len(run.Tool.Driver.Rules), len(all.Analyzers())+2; got != want {
		t.Errorf("rules = %d, want %d (suite + unusedsuppress + directive)", got, want)
	}
	if len(run.Results) != 1 {
		t.Fatalf("results = %d, want 1 (the wall-clock read):\n%s", len(run.Results), buf.String())
	}
	r := run.Results[0]
	if r.RuleID != "nowalltime" || r.Level != "error" {
		t.Errorf("result = %s/%s, want nowalltime/error", r.RuleID, r.Level)
	}
	loc := r.Locations[0].PhysicalLocation
	if !strings.HasSuffix(loc.ArtifactLocation.URI, "netsim/clock.go") || loc.Region.StartLine != 5 {
		t.Errorf("location = %s:%d, want .../netsim/clock.go:5", loc.ArtifactLocation.URI, loc.Region.StartLine)
	}
}

// TestExitCodeClassification pins the exit-status mapping the fuzz
// target (FuzzDirectiveParser) relies on: ordinary violations exit 1,
// malformed //lint: directives rank as configuration errors and exit 2.
func TestExitCodeClassification(t *testing.T) {
	ordinary := []analysis.Diagnostic{{Analyzer: "nowalltime", Message: "x"}}
	if got := exitCode(ordinary); got != 1 {
		t.Errorf("exitCode(violations) = %d, want 1", got)
	}
	mixed := append(ordinary, analysis.Diagnostic{Analyzer: "directive", Message: "malformed"})
	if got := exitCode(mixed); got != 2 {
		t.Errorf("exitCode(with malformed directive) = %d, want 2", got)
	}
}

// TestDocCommentListsAllAnalyzers keeps the package doc comment in sync
// with all.Analyzers(): the comment's analyzer list is regenerated by
// hand whenever the suite changes, and this test is what notices a stale
// one (the bug this suite's own history includes).
func TestDocCommentListsAllAnalyzers(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(src[:bytes.Index(src, []byte("package main"))])
	for _, a := range all.Analyzers() {
		if !strings.Contains(doc, a.Name) {
			t.Errorf("main.go doc comment does not mention analyzer %q; regenerate the list from all.Analyzers()", a.Name)
		}
	}
	if !strings.Contains(doc, "directive") {
		t.Error("main.go doc comment does not mention the directive pseudo-analyzer")
	}
}

// TestDesignAnalyzerTable keeps the analyzer table of DESIGN.md's Lint
// section in sync with all.Analyzers(): every row whose first cell is one
// backticked name names an analyzer, and every analyzer has exactly one such
// row. The forbid table's own row ("the `forbid` table") introduces its rows
// and is not one.
func TestDesignAnalyzerTable(t *testing.T) {
	sec := docSection(t, readRepoFile(t, "DESIGN.md"), "Lint")
	rows := map[string]int{}
	for _, line := range strings.Split(sec, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 3 || strings.TrimSpace(cells[0]) != "" {
			continue
		}
		first := strings.TrimSpace(cells[1])
		if name := strings.Trim(first, "`"); len(first) > 2 && first == "`"+name+"`" && !strings.Contains(name, "`") {
			rows[name]++
		}
	}
	for _, a := range all.Analyzers() {
		if n := rows[a.Name]; n != 1 {
			t.Errorf("DESIGN.md's Lint table has %d rows for analyzer %q, want 1", n, a.Name)
		}
		delete(rows, a.Name)
	}
	for name := range rows {
		t.Errorf("DESIGN.md's Lint table has a row for %q, which all.Analyzers() does not register", name)
	}
}

// TestLintOutputPinned runs the suite over a scratch module that trips
// every analyzer once, carries one suppression that works, one that
// suppresses nothing and one that is malformed, and pins the driver's
// three outputs: the text lines, the SARIF bytes (the module directory
// replaced by $DIR) and the exit status. testdata/pinned.txt and
// testdata/pinned.sarif hold the expected bytes.
func TestLintOutputPinned(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"go.mod":              "module scratch\n\ngo 1.22\n",
		"faults/faults.go":    "package faults\n\nfunc Names() []string { return nil }\n",
		"transport/impair.go": "package transport\n\nimport \"scratch/faults\"\n\nfunc Plans() []string { return faults.Names() }\n",
		"netsim/clock.go":     "package netsim\n\nimport \"time\"\n\nfunc Now() time.Time { return time.Now() }\n",
		"netsim/rand.go":      "package netsim\n\nimport \"math/rand\"\n\nfunc Draw() float64 { return rand.Float64() }\n",
		"netsim/fma.go":       "package netsim\n\nimport \"math\"\n\nfunc Fused(a, b, c float64) float64 { return math.FMA(a, b, c) }\n",
		"netsim/order.go":     "package netsim\n\nfunc Keys(m map[int]int) []int {\n\tvar out []int\n\tfor k := range m {\n\t\tout = append(out, k)\n\t}\n\treturn out\n}\n",
		"netsim/packet.go":    "package netsim\n\ntype Packet struct{ Seq int64 }\n\nfunc Bare() *Packet { return &Packet{} }\n\nfunc Pooled() *Packet {\n\t//lint:poolleak pool-internal -- the scratch pool's one bare allocation\n\treturn &Packet{Seq: 1}\n}\n",
		"netsim/mesh.go": `package netsim

type Sim struct{ now int64 }

func (s *Sim) Schedule(at int64, fn func()) {}

type Mesh struct{ cells []*Sim }

func (m *Mesh) Cell(i int) *Sim { return m.cells[i] }

func CrossTouch(m *Mesh) {
	a := m.Cell(0)
	b := m.Cell(1)
	a.Schedule(5, func() {
		b.Schedule(1, func() {})
	})
}
`,
		"netsim/directives.go": `package netsim

func Settled() int {
	//lint:poolleak pool-internal -- stale excuse for a literal that is gone
	return 3
}

func Sloppy() int {
	//lint:nowalltime real-time
	return 4
}
`,
	}
	for name, content := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	res, err := Run(dir, []string{"./..."}, all.Analyzers())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	var text, sarif bytes.Buffer
	writeDiags(&text, res)
	if err := WriteSARIF(&sarif, res.Fset, all.Analyzers(), res.Diags); err != nil {
		t.Fatalf("write sarif: %v", err)
	}
	for _, c := range []struct {
		golden string
		got    []byte
	}{{"testdata/pinned.txt", text.Bytes()}, {"testdata/pinned.sarif", sarif.Bytes()}} {
		want, err := os.ReadFile(c.golden)
		if err != nil {
			t.Fatal(err)
		}
		if got := bytes.ReplaceAll(c.got, []byte(filepath.ToSlash(dir)), []byte("$DIR")); !bytes.Equal(got, want) {
			t.Errorf("%s differs; got:\n%s", c.golden, got)
		}
	}
	if got := exitCode(res.Diags); got != 2 {
		t.Errorf("exitCode = %d, want 2 (the malformed directive ranks above the violations)", got)
	}
}
