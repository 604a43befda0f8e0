package experiments

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

func TestFiguresUnique(t *testing.T) {
	ids, digests := map[string]bool{}, map[string]bool{}
	for _, f := range Figures {
		if f.ID == "" || f.Title == "" || f.Run == nil {
			t.Errorf("incomplete row %+v", f)
		}
		if ids[f.ID] {
			t.Errorf("duplicate id %q", f.ID)
		}
		ids[f.ID] = true
		for _, name := range f.Golden {
			if digests[name] {
				t.Errorf("duplicate golden digest name %q", name)
			}
			digests[name] = true
		}
	}
}

// TestDocsIndexEveryFigure keeps the docs index in step with the table: every
// Figures id has exactly one "verus-bench -only <id>" line in DESIGN.md §3
// and at least one `<id>` in EXPERIMENTS.md.
func TestDocsIndexEveryFigure(t *testing.T) {
	read := func(path string) string {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	design := read("../../DESIGN.md")
	start := strings.Index(design, "\n## 3. ")
	end := strings.Index(design, "\n## 4. ")
	if start < 0 || end < start {
		t.Fatal("DESIGN.md has no §3 followed by §4")
	}
	indexed := map[string]int{}
	for _, m := range regexp.MustCompile(`verus-bench -only (\w+)`).FindAllStringSubmatch(design[start:end], -1) {
		indexed[m[1]]++
	}
	experiments := read("../../EXPERIMENTS.md")
	known := map[string]bool{}
	for _, f := range Figures {
		known[f.ID] = true
		if n := indexed[f.ID]; n != 1 {
			t.Errorf("DESIGN.md §3 names `verus-bench -only %s` %d times, want once", f.ID, n)
		}
		if !strings.Contains(experiments, "`"+f.ID+"`") {
			t.Errorf("EXPERIMENTS.md has no row for `%s`", f.ID)
		}
	}
	for id := range indexed {
		if !known[id] {
			t.Errorf("DESIGN.md §3 indexes -only %s, which no Figures row has", id)
		}
	}
}
