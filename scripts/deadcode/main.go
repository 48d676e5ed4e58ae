// Command deadcode lists every exported function, method, type, constant
// and variable declared under internal/ that no non-test Go file uses:
// code that only tests call, or that nothing calls at all.
//
// Usage, from the module root: go run ./scripts/deadcode
//
// It type-checks every package of the module in the current directory, and
// of every module nested under it (bench/), from the non-test files that
// the host's build constraints select. A declaration is used when an
// identifier in one of those files refers to it from outside the
// declaration itself and outside an all-blank var, the `var _ I =
// (*T)(nil)` assertion; a method's receiver does not use its type. A
// method is also used when its type implements an interface that names
// it, declared in the module or in any package it imports. A declaration
// that only unused code uses is listed once that code is gone: re-run
// until the list is empty.
//
// The allowlist below keeps what tests share across packages or a roadmap
// item needs, each entry with its reason. An entry with no reason fails
// the run, and so does a stale one: one that is used, or names nothing.
// scripts/doccheck.sh runs this in CI.
package main

import (
	"bufio"
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
)

// allow maps a declaration, as the report names it, to why it stays.
var allow = map[string]string{
	// Fixtures other packages' tests share: changing them changes those
	// tests' data.
	"internal/dataset.PointMass":         "population fixture of the accuracy, core and dataset tests",
	"internal/dataset.Dataset.Adjacent":  "neighbouring-dataset fixture of the core and dataset tests",
	"internal/histogram.Histogram.L1":    "distance the dataset, histogram and mw tests measure with",
	"internal/vecmath.ApproxEqual":       "vector comparison of the convex, mw and vecmath tests",
	"internal/sample.Source.Exponential": "draws the random histograms of the histogram, mw and optimize tests",

	// Paper bounds and factored references that tests compare against.
	"internal/mw.RegretBound":             "Lemma 3.4's regret bound, which the core and mw tests check",
	"internal/core.MinDatasetSize":        "Theorem 3.1's sample size, which the core tests check",
	"internal/erm.SampleComplexity":       "the Table-1 sample-complexity shapes the erm tests check",
	"internal/mw.FactoredState.Histogram": "dense view the factored-vs-dense MW tests compare",

	// Harnesses.
	"internal/fault/drill.Run": "the seeded crash-schedule drill the service tests run",
}

func main() {
	report, err := check(".", allow)
	if err != nil {
		fmt.Fprintln(os.Stderr, "deadcode:", err)
		os.Exit(2)
	}
	for _, line := range report {
		fmt.Fprintln(os.Stderr, line)
	}
	if len(report) > 0 {
		fmt.Fprintf(os.Stderr, "deadcode: %d problem(s): delete what only tests use, move it into a _test.go file, or allowlist it with a reason\n", len(report))
		os.Exit(1)
	}
}

// check loads the modules under root and returns, sorted, one line per
// unused declaration under internal/ and per allowlist problem.
func check(root string, allow map[string]string) ([]string, error) {
	l, err := newLoader(root)
	if err != nil {
		return nil, err
	}
	var pkgs []*pkg
	for p := range l.dirs {
		pk, err := l.load(p)
		if err != nil {
			return nil, err
		}
		if pk != nil {
			pkgs = append(pkgs, pk)
		}
	}
	used := map[types.Object]bool{}
	for _, pk := range pkgs {
		markUses(pk, used)
	}
	markImplementers(pkgs, used)

	var report []string
	unused := map[string]bool{}
	for _, pk := range pkgs {
		rel, ok := strings.CutPrefix(pk.types.Path(), l.module+"/")
		if !ok || !strings.HasPrefix(rel, "internal/") {
			continue
		}
		for _, id := range exported(pk) {
			obj := pk.info.Defs[id]
			if used[obj] {
				continue
			}
			key := rel + "." + id.Name
			if recv := recvOf(obj); recv != nil {
				key = rel + "." + recv.Name() + "." + id.Name
			}
			unused[key] = true
			if _, ok := allow[key]; !ok {
				pos := l.fset.Position(id.Pos())
				file, _ := filepath.Rel(root, pos.Filename)
				report = append(report, fmt.Sprintf("%s:%d: %s is used only by tests, or not at all", filepath.ToSlash(file), pos.Line, key))
			}
		}
	}
	for key, why := range allow {
		if strings.TrimSpace(why) == "" {
			report = append(report, "allowlist: "+key+" has no reason")
		} else if !unused[key] {
			report = append(report, "allowlist: "+key+" is stale: it is used, or names nothing")
		}
	}
	sort.Strings(report)
	return report, nil
}

// pkg is one type-checked package, non-test files only.
type pkg struct {
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// loader type-checks module packages from source and takes the standard
// library from the compiler's export data.
type loader struct {
	fset   *token.FileSet
	module string            // the root module's path
	dirs   map[string]string // import path -> directory, every module
	pkgs   map[string]*pkg   // loaded; nil for a directory with no buildable files
	std    types.Importer
}

// newLoader maps every directory under root, testdata and hidden ones
// aside, to its import path in the nearest enclosing module.
func newLoader(root string) (*loader, error) {
	l := &loader{
		fset: token.NewFileSet(),
		dirs: map[string]string{},
		pkgs: map[string]*pkg{},
		std:  importer.Default(),
	}
	modules := map[string]string{} // module directory -> module path
	err := filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); dir != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if mod, err := modulePath(filepath.Join(dir, "go.mod")); err == nil {
			modules[dir] = mod
		} else if !errors.Is(err, fs.ErrNotExist) {
			return err
		}
		for m := dir; ; m = filepath.Dir(m) {
			if mod, ok := modules[m]; ok {
				rel, _ := filepath.Rel(m, dir)
				l.dirs[path.Join(mod, filepath.ToSlash(rel))] = dir
				return nil
			}
			if m == root || m == filepath.Dir(m) {
				return fmt.Errorf("%s: no go.mod at or above it", dir)
			}
		}
	})
	l.module = modules[root]
	return l, err
}

// modulePath reads the module line of a go.mod file.
func modulePath(gomod string) (string, error) {
	f, err := os.Open(gomod)
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(sc.Text()), "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}

// Import implements types.Importer.
func (l *loader) Import(path string) (*types.Package, error) {
	if _, ok := l.dirs[path]; !ok {
		return l.std.Import(path)
	}
	pk, err := l.load(path)
	if err == nil && pk == nil {
		err = fmt.Errorf("%s: no buildable Go files", path)
	}
	if err != nil {
		return nil, err
	}
	return pk.types, nil
}

// load type-checks the package at import path p from the files the build
// constraints select, or returns nil if there are none.
func (l *loader) load(p string) (*pkg, error) {
	if pk, ok := l.pkgs[p]; ok {
		return pk, nil
	}
	bp, err := build.Default.ImportDir(l.dirs[p], 0)
	if _, ok := err.(*build.NoGoError); ok {
		l.pkgs[p] = nil
		return nil, nil
	} else if err != nil {
		return nil, err
	}
	pk := &pkg{info: &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(bp.Dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		pk.files = append(pk.files, f)
	}
	conf := types.Config{Importer: l}
	if pk.types, err = conf.Check(p, l.fset, pk.files, pk.info); err != nil {
		return nil, err
	}
	l.pkgs[p] = pk
	return pk, nil
}

// markUses marks every object pk's files refer to, except from inside the
// object's own declaration, from a method's receiver, or from an
// all-blank var.
func markUses(pk *pkg, used map[types.Object]bool) {
	mark := func(self types.Object, n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := origin(pk.info.Uses[id]); obj != nil && obj != self && obj != recvOf(self) {
					used[obj] = true
				}
			}
			return true
		})
	}
	for _, f := range pk.files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				self := pk.info.Defs[d.Name]
				mark(self, d.Type)
				if d.Body != nil {
					mark(self, d.Body)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						mark(pk.info.Defs[s.Name], s)
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.Name != "_" {
								mark(pk.info.Defs[n], s)
								break
							}
						}
					}
				}
			}
		}
	}
}

// exported returns the names of pk's exported top-level declarations,
// methods included.
func exported(pk *pkg) []*ast.Ident {
	var ids []*ast.Ident
	add := func(id *ast.Ident) {
		if id.IsExported() {
			ids = append(ids, id)
		}
	}
	for _, f := range pk.files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				add(d.Name)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						add(s.Name)
					case *ast.ValueSpec:
						for _, n := range s.Names {
							add(n)
						}
					}
				}
			}
		}
	}
	return ids
}

// markImplementers marks the methods an interface names on every module
// type that implements it. The interfaces are error, those declared at
// package level in a loaded package or anything it imports, and those
// written as type literals in module code.
func markImplementers(pkgs []*pkg, used map[types.Object]bool) {
	byMethod := map[string][]*types.Interface{} // first method name -> interfaces
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && !isGeneric(t) {
			name := it.Method(0).Name()
			byMethod[name] = append(byMethod[name], it)
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, pk := range pkgs {
		walk(pk.types)
		for _, tv := range pk.info.Types {
			if tv.IsType() {
				addIface(tv.Type)
			}
		}
	}
	for _, pk := range pkgs {
		for _, name := range pk.types.Scope().Names() {
			tn, ok := pk.types.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || isGeneric(tn.Type()) || types.IsInterface(tn.Type()) {
				continue
			}
			ptr := types.NewPointer(tn.Type())
			ms := types.NewMethodSet(ptr)
			for i := 0; i < ms.Len(); i++ {
				for _, it := range byMethod[ms.At(i).Obj().Name()] {
					if !types.Implements(ptr, it) {
						continue
					}
					for j := 0; j < it.NumMethods(); j++ {
						m := it.Method(j)
						obj, _, _ := types.LookupFieldOrMethod(ptr, false, m.Pkg(), m.Name())
						used[origin(obj)] = true
					}
				}
			}
		}
	}
}

// recvOf returns the named receiver type of a method, or nil.
func recvOf(obj types.Object) types.Object {
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Origin().Obj()
	}
	return nil
}

// origin maps an instantiated generic function or method to its
// declaration.
func origin(obj types.Object) types.Object {
	if fn, ok := obj.(*types.Func); ok {
		return fn.Origin()
	}
	return obj
}

// isGeneric reports whether t is a generic named type, which cannot be
// checked for interface satisfaction without instantiating it.
func isGeneric(t types.Type) bool {
	n, ok := t.(*types.Named)
	return ok && n.TypeParams().Len() > 0
}
