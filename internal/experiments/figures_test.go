package experiments

import "testing"

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
