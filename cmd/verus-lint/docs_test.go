package main

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"

	"repro/internal/experiments"
)

// The doc-index guards. Every index in DESIGN.md, README.md, EXPERIMENTS.md,
// the CI workflow and bench/README.md that names code is checked here against
// the code, so a rename or a deletion fails a test instead of leaving the
// docs pointing at nothing. The repository root is two levels up.

const repoRoot = "../.."

// readRepoFile returns the contents of a file named relative to the
// repository root.
func readRepoFile(t *testing.T, rel string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(repoRoot, rel))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// docSection returns the top-level section of a Markdown document whose
// heading text, after an optional "N. " number, is heading: the lines from
// the heading to the next "## " heading.
func docSection(t *testing.T, doc, heading string) string {
	t.Helper()
	headingRe := regexp.MustCompile(`^## (?:\d+\. )?(.*)$`)
	lines := strings.Split(doc, "\n")
	for i, line := range lines {
		if m := headingRe.FindStringSubmatch(line); m == nil || m[1] != heading {
			continue
		}
		end := len(lines)
		for j := i + 1; j < len(lines); j++ {
			if strings.HasPrefix(lines[j], "## ") {
				end = j
				break
			}
		}
		return strings.Join(lines[i:end], "\n")
	}
	t.Fatalf("no section headed %q", heading)
	return ""
}

// repoWalk calls fn for every file of the repository outside hidden and
// testdata directories, with its slash-separated path relative to the root.
func repoWalk(t *testing.T, fn func(rel string)) {
	t.Helper()
	err := filepath.WalkDir(repoRoot, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(repoRoot, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if rel != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return fs.SkipDir
			}
			return nil
		}
		fn(rel)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// testFuncRe matches a top-level test, fuzz, benchmark or example function.
var testFuncRe = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark|Example)\w*)\(`)

// testFuncsByDir maps each directory holding _test.go files, bench/
// included, to the test, fuzz, benchmark and example functions declared
// there.
func testFuncsByDir(t *testing.T) map[string][]string {
	t.Helper()
	byDir := map[string][]string{}
	repoWalk(t, func(rel string) {
		if !strings.HasSuffix(rel, "_test.go") {
			return
		}
		dir := filepath.ToSlash(filepath.Dir(rel))
		for _, m := range testFuncRe.FindAllStringSubmatch(readRepoFile(t, rel), -1) {
			byDir[dir] = append(byDir[dir], m[1])
		}
	})
	return byDir
}

// TestDesignModuleMapCoversEveryPackage requires DESIGN.md's module map to
// have a row for every directory holding non-test Go files (a `dir/...` row
// covers the tree below dir) and every row to name a path that exists.
func TestDesignModuleMapCoversEveryPackage(t *testing.T) {
	sec := docSection(t, readRepoFile(t, "DESIGN.md"), "Module map")
	exact, trees := map[string]bool{}, map[string]bool{}
	tickRe := regexp.MustCompile("`([^`]+)`")
	for _, line := range strings.Split(sec, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 3 || strings.TrimSpace(cells[0]) != "" {
			continue
		}
		for _, m := range tickRe.FindAllStringSubmatch(cells[1], -1) {
			row := m[1]
			dir := strings.TrimSuffix(strings.TrimSuffix(row, "/..."), "/")
			if _, err := os.Stat(filepath.Join(repoRoot, dir)); err != nil {
				t.Errorf("module map row `%s` names no path in the repository", row)
			}
			if strings.HasSuffix(row, "/...") {
				trees[dir] = true
			} else {
				exact[dir] = true
			}
		}
	}
	if len(exact)+len(trees) == 0 {
		t.Fatal("module map has no rows")
	}
	pkgs := map[string]bool{}
	repoWalk(t, func(rel string) {
		if strings.HasSuffix(rel, ".go") && !strings.HasSuffix(rel, "_test.go") {
			pkgs[filepath.ToSlash(filepath.Dir(rel))] = true
		}
	})
	for pkg := range pkgs {
		covered := exact[pkg]
		for dir := pkg; !covered && dir != "."; dir = filepath.ToSlash(filepath.Dir(dir)) {
			covered = trees[dir]
		}
		if !covered {
			t.Errorf("package %s has no row in DESIGN.md's module map", pkg)
		}
	}
}

// TestDocsCiteExistingNames requires every test, fuzz, benchmark and example
// name and every repository path that DESIGN.md, README.md or
// EXPERIMENTS.md cites to exist. A path is a name under one of the
// top-level directories, a root document, or a bare Go file name, which
// must name some file of the repository.
func TestDocsCiteExistingNames(t *testing.T) {
	names := map[string]bool{}
	for _, fns := range testFuncsByDir(t) {
		for _, fn := range fns {
			names[fn] = true
		}
	}
	bases := map[string]bool{}
	repoWalk(t, func(rel string) { bases[filepath.Base(rel)] = true })

	nameRe := regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark|Example)[A-Z0-9_]\w*`)
	pathRe := regexp.MustCompile(`(?:^|[^\w./-])((?:internal|cmd|examples|bench|\.github)/[\w./-]*)`)
	rootDocRe := regexp.MustCompile(`\b[A-Z][A-Z_]*\.(?:md|json)\b`)
	goFileRe := regexp.MustCompile(`(?:^|[^\w./-])([A-Za-z]\w*\.go)\b`)
	for _, doc := range []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"} {
		text := readRepoFile(t, doc)
		for _, name := range nameRe.FindAllString(text, -1) {
			if !names[name] {
				t.Errorf("%s cites %s, which no _test.go file declares", doc, name)
			}
		}
		for _, m := range pathRe.FindAllStringSubmatch(text, -1) {
			path := strings.TrimRight(strings.TrimSuffix(m[1], "/..."), "./")
			if _, err := os.Stat(filepath.Join(repoRoot, path)); err != nil {
				t.Errorf("%s cites %s, which does not exist", doc, m[1])
			}
		}
		for _, path := range rootDocRe.FindAllString(text, -1) {
			if _, err := os.Stat(filepath.Join(repoRoot, path)); err != nil {
				t.Errorf("%s cites %s, which does not exist", doc, path)
			}
		}
		for _, m := range goFileRe.FindAllStringSubmatch(text, -1) {
			if !bases[m[1]] {
				t.Errorf("%s cites %s, which names no file of the repository", doc, m[1])
			}
		}
	}
}

// TestDesignCitesNoChangeNumbers keeps DESIGN.md about the code as it is:
// the change that made a mechanism is history, and CHANGES.md holds it.
func TestDesignCitesNoChangeNumbers(t *testing.T) {
	for _, m := range regexp.MustCompile(`\bPRs? ?#?\d+|\bPR-\d+`).FindAllString(readRepoFile(t, "DESIGN.md"), -1) {
		t.Errorf("DESIGN.md cites %q; name the mechanism or the test instead", m)
	}
}

// TestDesignReferencesNameHeadings keeps references into DESIGN.md valid
// when its sections are renumbered. A reference is the document's name, a
// space and "§" followed by the name of one of its "## N. <heading>" lines
// (the heading up to any parenthesis), and more sections may follow as
// ", §<name>". A section number in place of the name fails, and so does
// text that starts no heading. Inside DESIGN.md a bare "§" followed by a
// letter is such a reference too; "§" and a number there is the paper's
// section. Code, the CI workflow and the documents that describe the code
// are read; CHANGES.md and ROADMAP.md record history and are not.
func TestDesignReferencesNameHeadings(t *testing.T) {
	design := readRepoFile(t, "DESIGN.md")
	var headings []string
	for _, m := range regexp.MustCompile(`(?m)^## \d+\. ([^(\n]+?)(?: \(.*)?$`).FindAllStringSubmatch(design, -1) {
		headings = append(headings, m[1])
	}
	if len(headings) == 0 {
		t.Fatal("DESIGN.md has no numbered headings")
	}
	// Longest first, so a heading is never cut short by another it starts
	// with.
	sort.Slice(headings, func(i, j int) bool { return len(headings[i]) > len(headings[j]) })
	files := []string{"README.md", "EXPERIMENTS.md", "bench/README.md", ".github/workflows/ci.yml"}
	repoWalk(t, func(rel string) {
		if strings.HasSuffix(rel, ".go") {
			files = append(files, rel)
		}
	})
	refs := 0
	check := func(rel, text string, pos int) {
		refs++
		if err := designRefChain(text[pos:], headings); err != "" {
			t.Errorf("%s:%d: %s", rel, strings.Count(text[:pos], "\n")+1, err)
		}
	}
	refRe := regexp.MustCompile(`DESIGN\.md \x{a7}`)
	for _, rel := range files {
		text := readRepoFile(t, rel)
		for _, loc := range refRe.FindAllStringIndex(text, -1) {
			check(rel, text, loc[1])
		}
	}
	for _, loc := range regexp.MustCompile(`\x{a7}\pL`).FindAllStringIndex(design, -1) {
		if !strings.HasSuffix(design[:loc[0]], ", ") {
			check("DESIGN.md", design, loc[0]+len("§"))
		}
	}
	if refs == 0 {
		t.Fatal("found no DESIGN.md section reference")
	}
}

// designRefChain checks the section names that follow a reference's "§":
// one heading, then optionally ", §" and another, and so on. It returns
// what is wrong, or "".
func designRefChain(rest string, headings []string) string {
	for {
		if rest != "" && rest[0] >= '0' && rest[0] <= '9' {
			return "numbered DESIGN.md section reference; name the heading instead"
		}
		name := ""
		for _, h := range headings {
			if strings.HasPrefix(rest, h) && !startsWithWordChar(rest[len(h):]) {
				name = h
				break
			}
		}
		if name == "" {
			return fmt.Sprintf("DESIGN.md section reference %q names no heading", firstWords(rest))
		}
		rest = rest[len(name):]
		if !strings.HasPrefix(rest, ", §") {
			return ""
		}
		rest = rest[len(", §"):]
	}
}

// startsWithWordChar reports whether s begins with a letter or digit, which
// would make a heading matched just before it a prefix of a longer word.
func startsWithWordChar(s string) bool {
	r, _ := utf8.DecodeRuneInString(s)
	return unicode.IsLetter(r) || unicode.IsDigit(r)
}

// firstWords returns the start of s up to its first line break, at most 30
// bytes, for a diagnostic.
func firstWords(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	if len(s) > 30 {
		s = s[:30]
	}
	return s
}

// TestCIRunPatternsMatchTests keeps CI's selective steps from going
// vacuous: `go test -run X` passes with "no tests to run" once the test X
// named is renamed. Every alternative of every -run and -fuzz pattern in
// the workflow, unanchored as go test applies it, must match a test, fuzz
// or example function (a fuzz function for -fuzz) in the packages the
// command names. The pattern ^$ selects nothing on purpose.
func TestCIRunPatternsMatchTests(t *testing.T) {
	byDir := testFuncsByDir(t)
	flagRe := regexp.MustCompile(`-(run|fuzz)[ =]('[^']*'|"[^"]*"|\S+)`)
	checked := 0
	for n, line := range strings.Split(readRepoFile(t, ".github/workflows/ci.yml"), "\n") {
		if !strings.Contains(line, "go test") {
			continue
		}
		var candidates []string
		for _, field := range strings.Fields(line) {
			if !strings.HasPrefix(field, "./") {
				continue
			}
			pkg := strings.TrimPrefix(field, "./")
			tree := strings.HasSuffix(pkg, "...")
			pkg = strings.TrimSuffix(strings.TrimSuffix(pkg, "..."), "/")
			for dir, fns := range byDir {
				if dir == pkg || (tree && (pkg == "" || strings.HasPrefix(dir, pkg+"/"))) {
					candidates = append(candidates, fns...)
				}
			}
		}
		for _, m := range flagRe.FindAllStringSubmatch(line, -1) {
			pattern := strings.Trim(m[2], `'"`)
			if pattern == "^$" {
				continue
			}
			for _, alt := range strings.Split(pattern, "|") {
				re, err := regexp.Compile(strings.SplitN(alt, "/", 2)[0])
				if err != nil {
					t.Errorf("ci.yml:%d: -%s alternative %q: %v", n+1, m[1], alt, err)
					continue
				}
				checked++
				matched := false
				for _, fn := range candidates {
					runnable := !strings.HasPrefix(fn, "Benchmark") && (m[1] == "run" || strings.HasPrefix(fn, "Fuzz"))
					if runnable && re.MatchString(fn) {
						matched = true
						break
					}
				}
				if !matched {
					t.Errorf("ci.yml:%d: -%s alternative %q matches no function in the packages the step tests", n+1, m[1], alt)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no -run or -fuzz pattern in ci.yml")
	}
}

// TestBenchLayerTableMatchesBenchmark requires bench/README.md's "layer
// metrics" table to name exactly the per-layer metrics BENCHMARK.json
// declares. The table abbreviates: `_d10k` after netsim.sim.event_ns_d100
// is netsim.sim.event_ns_d10k, and `.loss_detected` after
// netsim.source.sent is netsim.source.loss_detected.
func TestBenchLayerTableMatchesBenchmark(t *testing.T) {
	var spec struct {
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal([]byte(readRepoFile(t, "BENCHMARK.json")), &spec); err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, m := range spec.PerLayer {
		want[m.Name] = true
	}

	readme := readRepoFile(t, "bench/README.md")
	start := strings.Index(readme, "\n| layer metrics |")
	if start < 0 {
		t.Fatal(`bench/README.md has no "layer metrics" table`)
	}
	got := map[string]bool{}
	nameRe := regexp.MustCompile(`^[a-z][a-z0-9_]*(?:\.[a-z0-9_]+)*$`)
	tickRe := regexp.MustCompile("`([^`]+)`")
	prev := ""
	for _, line := range strings.Split(readme[start+1:], "\n")[2:] {
		cells := strings.Split(line, "|")
		if len(cells) < 3 {
			break
		}
		for _, m := range tickRe.FindAllStringSubmatch(cells[1], -1) {
			name := m[1]
			switch {
			case strings.HasPrefix(name, "_") && prev != "":
				name = prev[:strings.LastIndex(prev, "_")] + name
			case strings.HasPrefix(name, ".") && prev != "":
				name = prev[:strings.LastIndex(prev, ".")] + name
			}
			if !nameRe.MatchString(name) {
				continue // a condition such as `nproc < 2`, not a metric
			}
			got[name] = true
			prev = name
		}
	}
	for _, name := range sortedKeys(want) {
		if !got[name] {
			t.Errorf("BENCHMARK.json declares per-layer metric %s, which bench/README.md's layer table does not name", name)
		}
	}
	for _, name := range sortedKeys(got) {
		if !want[name] {
			t.Errorf("bench/README.md's layer table names %s, which BENCHMARK.json does not declare", name)
		}
	}
}

func sortedKeys(m map[string]bool) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestDocsIndexEveryFigure keeps the docs index in step with the table: every
// Figures id has exactly one "verus-bench -only <id>" line in DESIGN.md's
// Experiments section and at least one `<id>` in EXPERIMENTS.md.
func TestDocsIndexEveryFigure(t *testing.T) {
	sec := docSection(t, readRepoFile(t, "DESIGN.md"), "Experiments")
	indexed := map[string]int{}
	for _, m := range regexp.MustCompile(`verus-bench -only (\w+)`).FindAllStringSubmatch(sec, -1) {
		indexed[m[1]]++
	}
	exps := readRepoFile(t, "EXPERIMENTS.md")
	known := map[string]bool{}
	for _, f := range experiments.Figures {
		known[f.ID] = true
		if n := indexed[f.ID]; n != 1 {
			t.Errorf("DESIGN.md's Experiments section names `verus-bench -only %s` %d times, want once", f.ID, n)
		}
		if !strings.Contains(exps, "`"+f.ID+"`") {
			t.Errorf("EXPERIMENTS.md has no row for `%s`", f.ID)
		}
	}
	for id := range indexed {
		if !known[id] {
			t.Errorf("DESIGN.md's Experiments section indexes -only %s, which no Figures row has", id)
		}
	}
}
