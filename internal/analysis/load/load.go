// Package load turns `go list` package patterns into parsed, type-checked
// packages for the analysis framework, using only the standard library.
//
// The trick that keeps this small: `go list -export -deps` makes the go
// tool compile every dependency and hand back build-cache export-data
// files, which go/importer's "gc" mode can read through a lookup function.
// Each target package is then parsed from source and type-checked against
// its dependencies' export data — no reimplementation of import resolution,
// no network, no x/tools.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one parsed and type-checked target package.
type Package struct {
	// Path is the package's import path.
	Path string
	// Dir is the directory holding its sources.
	Dir string
	// Files are the parsed non-test Go files, with comments.
	Files []*ast.File
	// Types is the type-checked package object.
	Types *types.Package
	// Info carries the resolution tables analyzers consult.
	Info *types.Info
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
	DepOnly    bool
	Error      *struct{ Err string }
}

// Load lists the patterns in dir, type-checks every matched (non-dependency)
// package, and returns them sorted by import path. Test files are excluded:
// the determinism contract governs shipped simulation code, while tests and
// benchmarks legitimately read wall clocks and the global RNG.
func Load(dir string, patterns ...string) ([]*Package, *token.FileSet, error) {
	pkgs, err := goList(dir, patterns)
	if err != nil {
		return nil, nil, err
	}
	fset := token.NewFileSet()
	imp := exportImporter(fset, pkgs)
	var out []*Package
	for _, p := range pkgs {
		if p.Error != nil {
			return nil, nil, fmt.Errorf("go list: package %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.DepOnly || p.Standard {
			continue
		}
		files, err := parse(fset, p.Dir, p.GoFiles)
		if err != nil {
			return nil, nil, err
		}
		pkg, err := check(fset, imp, p.ImportPath, p.Dir, files)
		if err != nil {
			return nil, nil, err
		}
		out = append(out, pkg)
	}
	return out, fset, nil
}

// Dir parses every .go file directly under dir as one package with the
// given import path and type-checks it against the standard library
// packages its files import. analysistest loads its fixtures with it:
// they live in testdata, outside the module's package graph.
func Dir(fset *token.FileSet, importPath, dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".go" {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("no .go files in %s", dir)
	}
	files, err := parse(fset, dir, names)
	if err != nil {
		return nil, err
	}
	// go list needs at least one root; "errors" is a tiny stdlib leaf.
	imports := []string{"errors"}
	for _, f := range files {
		for _, spec := range f.Imports {
			imports = append(imports, strings.Trim(spec.Path.Value, `"`))
		}
	}
	pkgs, err := goList(dir, imports)
	if err != nil {
		return nil, err
	}
	return check(fset, exportImporter(fset, pkgs), importPath, dir, files)
}

// goList runs `go list -export -deps -json` on the patterns.
func goList(dir string, patterns []string) ([]listPkg, error) {
	args := append([]string{
		"list", "-export", "-deps",
		"-json=ImportPath,Dir,GoFiles,Export,Standard,DepOnly,Error",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.String())
	}
	var pkgs []listPkg
	dec := json.NewDecoder(bytes.NewReader(stdout))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list %v: decoding output: %v", patterns, err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// exportImporter resolves imports from the build-cache export data that
// `go list -export` reported for the listed packages.
func exportImporter(fset *token.FileSet, pkgs []listPkg) types.Importer {
	exports := map[string]string{}
	for _, p := range pkgs {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})
}

// parse parses the named files in dir, with comments.
func parse(fset *token.FileSet, dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// check type-checks the files as one package.
func check(fset *token.FileSet, imp types.Importer, importPath, dir string, files []*ast.File) (*Package, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(importPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", importPath, err)
	}
	return &Package{Path: importPath, Dir: dir, Files: files, Types: tpkg, Info: info}, nil
}
