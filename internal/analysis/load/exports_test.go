package load

import (
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// testOnlyAllowed names the exported functions and methods that may stay
// without a non-test caller, each with the reason it stays.
var testOnlyAllowed = map[string]string{
	"repro/internal/analysis/analysistest.RunSuite": "test-support package: the analyzers' fixture tests are its callers",
	"repro/internal/netsim.Mesh.WindowStats":        "queued in ROADMAP.md: the harness records per-window event counts for a shard-speedup predictor",
	"repro/internal/faults.NewProxy":                "queued in ROADMAP.md: the sim-vs-transport differential test drives the proxy",
	"repro/internal/faults.Proxy.Addr":              "with NewProxy",
	"repro/internal/faults.Proxy.Close":             "with NewProxy",
	"repro/internal/faults.Proxy.Stats":             "with NewProxy",
	"repro/internal/cellular.Tech.String":           "fmt calls it: trace names and the metro render format a Tech with %s",
	"repro/internal/cellular.Operator.String":       "fmt calls it: trace names format an Operator with %s",
	"repro/internal/faults.EventKind.String":        "fmt calls it: Plan.Validate formats an event's Kind with %s",
}

// TestNoTestOnlyExports fails, by name, on every exported function or
// method of the module that no non-test code in the module or in bench/
// calls: code shipped only for its tests. A method is exempt when its
// type's method set completes an interface the module defines, spells as
// a literal or names (error among them), since calls through the
// interface do not name the method.
func TestNoTestOnlyExports(t *testing.T) {
	root, err := filepath.Abs("../../..")
	if err != nil {
		t.Fatal(err)
	}
	got, err := testOnlyExports(root, filepath.Join(root, "bench"))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, name := range got {
		seen[name] = true
		if _, ok := testOnlyAllowed[name]; !ok {
			t.Errorf("%s is exported but no non-test code calls it: delete it, or move what its tests need into the tests", name)
		}
	}
	for name := range testOnlyAllowed {
		if !seen[name] {
			t.Errorf("allowlist entry %s no longer names a test-only export; remove it", name)
		}
	}
}

// TestNoTestOnlyExportsScratch runs the scan over a scratch module with
// one export a command calls, one only its test calls, one method that
// completes a named module interface and one that completes a literal
// interface, and expects exactly the test-only export to be reported.
func TestNoTestOnlyExportsScratch(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module scratch\n\ngo 1.22\n",
		"lib/lib.go": `package lib

func Used() int { return 1 }

func TestOnly() int { return 2 }

type Namer interface{ Name() string }

type T struct{}

func (T) Name() string { return "t" }

type R struct{}

func (R) Render() string { return "r" }

func Show(xs ...interface{ Render() string }) {}
`,
		"lib/lib_test.go": "package lib\n\nimport \"testing\"\n\nfunc TestLib(t *testing.T) { _ = TestOnly() }\n",
		"cmd/app/main.go": "package main\n\nimport \"scratch/lib\"\n\nfunc main() { lib.Show(lib.R{}); _ = lib.Used() }\n",
	}
	writeModule(t, dir, files)
	got, err := testOnlyExports(dir)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"scratch/lib.TestOnly"}; !reflect.DeepEqual(got, want) {
		t.Errorf("testOnlyExports = %q, want %q", got, want)
	}
}

// testOnlyExports loads every package of the module at each dir (test
// files excluded) and returns, sorted, the exported functions and methods
// declared in the first module that no loaded package uses. Method lookups
// go by package path and name, which is how an unexported interface
// method matches across importers. Each module
// is type-checked against its dependencies' export data, so one object is
// a different types.Object in every importer: objects are keyed by name
// ("pkg.Func", "pkg.Type.Method") and method sets are matched by method
// name.
func testOnlyExports(dirs ...string) ([]string, error) {
	scanned, pkgs, err := loadModules(dirs)
	if err != nil {
		return nil, err
	}
	used := map[string]bool{}
	var ifaces []*types.Interface
	var named []types.Type
	for _, p := range pkgs {
		for _, obj := range p.Info.Uses {
			switch obj := obj.(type) {
			case *types.Func:
				used[funcKey(obj)] = true
			case *types.TypeName:
				// A named interface the module refers to, error included.
				if it, ok := obj.Type().Underlying().(*types.Interface); ok {
					ifaces = append(ifaces, it)
				}
			}
		}
		for _, obj := range p.Info.Defs {
			if tn, ok := obj.(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					ifaces = append(ifaces, it)
				} else {
					named = append(named, tn.Type())
				}
			}
		}
		// Literal interfaces, such as a parameter of type
		// ...interface{ Render() string }, have no TypeName.
		for _, tv := range p.Info.Types {
			if it, ok := tv.Type.(*types.Interface); ok {
				ifaces = append(ifaces, it)
			}
		}
	}
	// A method is reached through an interface when its type's method
	// set, promoted methods included, holds all of the interface's.
	for _, t := range named {
		mset := types.NewMethodSet(types.NewPointer(t))
		for _, it := range ifaces {
			if it.NumMethods() > 0 && completes(mset, it) {
				for i := 0; i < it.NumMethods(); i++ {
					m := it.Method(i)
					used[funcKey(mset.Lookup(m.Pkg(), m.Name()).Obj().(*types.Func))] = true
				}
			}
		}
	}
	var out []string
	for _, p := range scanned {
		for _, obj := range p.Info.Defs {
			fn, ok := obj.(*types.Func)
			if !ok || !fn.Exported() || used[funcKey(fn)] {
				continue
			}
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				continue
			}
			out = append(out, funcKey(fn))
		}
	}
	sort.Strings(out)
	return out, nil
}

// loadModules loads every package of the module at each dir, test files
// excluded, and returns the first module's packages and all of them.
func loadModules(dirs []string) (first, all []*Package, err error) {
	for i, dir := range dirs {
		loaded, _, err := Load(dir, "./...")
		if err != nil {
			return nil, nil, err
		}
		if i == 0 {
			first = loaded
		}
		all = append(all, loaded...)
	}
	return first, all, nil
}

// writeModule writes files, keyed by slash path, under dir.
func writeModule(t *testing.T, dir string, files map[string]string) {
	t.Helper()
	for name, content := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// funcKey names a function "pkg.Func" and a method "pkg.Type.Method".
func funcKey(fn *types.Func) string {
	fn = fn.Origin()
	if fn.Pkg() == nil {
		// The universe error.Error has no package.
		return fn.Name()
	}
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil {
		return fn.Pkg().Path() + "." + fn.Name()
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		// A literal interface's method.
		return fn.Pkg().Path() + "." + fn.Name()
	}
	return fn.Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name()
}

// completes reports whether mset holds a method of every name in it.
func completes(mset *types.MethodSet, it *types.Interface) bool {
	for i := 0; i < it.NumMethods(); i++ {
		if m := it.Method(i); mset.Lookup(m.Pkg(), m.Name()) == nil {
			return false
		}
	}
	return true
}

// unwrittenAllowed names the exported config fields that may stay without a
// non-test write, each with the reason it stays.
var unwrittenAllowed = map[string]string{
	"repro/internal/netsim.FlowSpec.MTU":    "the fault layer's conservation test varies the MTU",
	"repro/internal/netsim.FlowSpec.Stop":   "the pool-drain tests stop flows",
	"repro/internal/netsim.FlowSpec.Attrib": "the attribution tests wire it",
}

// TestNoUnwrittenConfigFields fails, by name, on every exported field of an
// exported struct type named ...Config, ...Options or ...Spec that no
// non-test code in the module or in bench/ writes: a knob nobody sets.
func TestNoUnwrittenConfigFields(t *testing.T) {
	root, err := filepath.Abs("../../..")
	if err != nil {
		t.Fatal(err)
	}
	got, err := unwrittenConfigFields(root, filepath.Join(root, "bench"))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, name := range got {
		seen[name] = true
		if _, ok := unwrittenAllowed[name]; !ok {
			t.Errorf("%s is a config field no non-test code writes: delete it, or make it a constant", name)
		}
	}
	for name := range unwrittenAllowed {
		if !seen[name] {
			t.Errorf("allowlist entry %s no longer names an unwritten config field; remove it", name)
		}
	}
}

// TestNoUnwrittenConfigFieldsScratch runs the scan over a scratch module
// whose command writes config fields in every form the scan counts, one of
// them through an embedded struct, and whose test alone writes one more,
// and expects exactly that one reported.
func TestNoUnwrittenConfigFieldsScratch(t *testing.T) {
	dir := t.TempDir()
	writeModule(t, dir, map[string]string{
		"go.mod": "module scratch\n\ngo 1.22\n",
		"lib/lib.go": `package lib

type BaseConfig struct{ Deep int }

type RunConfig struct {
	Keyed, Assigned, Bumped, Addressed, TestOnly int
	BaseConfig
	hidden int
}

type PairSpec struct{ A, B int }

type Other struct{ Never int }
`,
		"lib/lib_test.go": "package lib\n\nimport \"testing\"\n\nfunc TestLib(t *testing.T) { _ = RunConfig{TestOnly: 1} }\n",
		"cmd/app/main.go": `package main

import "scratch/lib"

func main() {
	c := &lib.RunConfig{Keyed: 1}
	c.Assigned = 2
	c.Bumped++
	p := &c.Addressed
	*p = 3
	c.BaseConfig = lib.BaseConfig{}
	c.Deep = 4
	_ = lib.PairSpec{1, 2}
}
`,
	})
	got, err := unwrittenConfigFields(dir)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"scratch/lib.RunConfig.TestOnly"}; !reflect.DeepEqual(got, want) {
		t.Errorf("unwrittenConfigFields = %q, want %q", got, want)
	}
}

// unwrittenConfigFields loads every package of the module at each dir
// (test files excluded) and returns, sorted, the exported fields of the
// first module's exported ...Config, ...Options and ...Spec struct types
// that no loaded package writes. A write is a composite-literal element,
// keyed or positional, an assignment or inc/dec through a selector, or an
// address taken with &x.F. Export data gives every importer its own field
// objects, so fields are keyed "pkg.Type.Field".
func unwrittenConfigFields(dirs ...string) ([]string, error) {
	scanned, pkgs, err := loadModules(dirs)
	if err != nil {
		return nil, err
	}
	written := map[string]bool{}
	for _, p := range pkgs {
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					litWrites(p.Info, n, written)
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						selectorWrite(p.Info, lhs, written)
					}
				case *ast.IncDecStmt:
					selectorWrite(p.Info, n.X, written)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						selectorWrite(p.Info, n.X, written)
					}
				}
				return true
			})
		}
	}
	var out []string
	for _, p := range scanned {
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || !isConfigName(name) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() && !written[fieldKey(tn, f.Name())] {
					out = append(out, fieldKey(tn, f.Name()))
				}
			}
		}
	}
	sort.Strings(out)
	return out, nil
}

func isConfigName(name string) bool {
	return strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Spec")
}

// fieldKey names a field "pkg.Type.Field".
func fieldKey(tn *types.TypeName, field string) string {
	return tn.Pkg().Path() + "." + tn.Name() + "." + field
}

// namedStruct returns the named struct type t is or points to.
func namedStruct(t types.Type) (*types.TypeName, *types.Struct, bool) {
	t = types.Unalias(t)
	if ptr, ok := t.(*types.Pointer); ok {
		t = types.Unalias(ptr.Elem())
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil, nil, false
	}
	st, ok := named.Underlying().(*types.Struct)
	return named.Obj(), st, ok
}

// litWrites marks the fields a struct composite literal sets.
func litWrites(info *types.Info, lit *ast.CompositeLit, written map[string]bool) {
	tn, st, ok := namedStruct(info.TypeOf(lit))
	if !ok {
		return
	}
	for i, elt := range lit.Elts {
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			if id, ok := kv.Key.(*ast.Ident); ok {
				written[fieldKey(tn, id.Name)] = true
			}
		} else if i < st.NumFields() {
			written[fieldKey(tn, st.Field(i).Name())] = true
		}
	}
}

// selectorWrite marks the field e selects, if it is one. A promoted field
// belongs to the struct at the end of the embedding path.
func selectorWrite(info *types.Info, e ast.Expr, written map[string]bool) {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return
	}
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return
	}
	t := s.Recv()
	path := s.Index()
	for _, i := range path[:len(path)-1] {
		_, st, ok := namedStruct(t)
		if !ok {
			return
		}
		t = st.Field(i).Type()
	}
	if tn, _, ok := namedStruct(t); ok {
		written[fieldKey(tn, sel.Sel.Name)] = true
	}
}
