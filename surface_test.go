package dmx

// The packages under internal/ have no users outside this repository, so
// an export that no program calls is code only its own tests keep alive.
// TestInternalSurface lists every exported package-level identifier and
// exported method declared in internal/ that no non-test file references
// — the root package, cmd/, examples/, internal/ itself and the separate
// perfbench module all count as users — and requires that list to equal
// testdata/internal_surface.txt, where each line names one identifier
// and says why it stays. A new unused export fails the test until it is
// used, deleted or listed with a reason; a listed name that is now used
// or gone fails it too. There is no -update: a reason is written by hand.
//
// References are resolved with go/types, not by name, so same-named
// methods of different types do not hide each other. A method also
// counts as used when it implements an interface method that non-test
// code calls, or fmt.Stringer's String or error's Error, which the
// standard library calls.
import (
	"bufio"
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
	"sort"
	"strings"
	"testing"
)

const surfaceAllowList = "testdata/internal_surface.txt"

// listedPackage is the part of `go list -json` the surface scan reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
}

// listPackages runs one `go list -deps -export` from the perfbench
// module, whose build list includes this module through its replace
// directive, so dmx/... and perfbench are listed together. Packages come
// in dependency order and standard-library ones carry export data.
func listPackages(t *testing.T) []listedPackage {
	t.Helper()
	cmd := exec.Command("go", "list", "-C", "perfbench", "-deps", "-export",
		"-json=ImportPath,Dir,GoFiles,Export,Standard", ".", "dmx/...")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs
}

// sourceImporter serves this repository's packages from their
// type-checked sources, so every package shares one set of objects, and
// the standard library from compiler export data.
type sourceImporter struct {
	checked map[string]*types.Package
	gc      types.Importer
}

func (s sourceImporter) Import(path string) (*types.Package, error) {
	if p, ok := s.checked[path]; ok {
		return p, nil
	}
	return s.gc.Import(path)
}

// origin maps an instantiated function or field to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// unusedInternalExports returns the surface names ("pkg.Name" or
// "pkg.Type.Method", pkg relative to dmx/internal/) of every exported
// identifier declared in internal/ that no non-test file uses.
func unusedInternalExports(t *testing.T) []string {
	t.Helper()
	listed := listPackages(t)
	export := make(map[string]string, len(listed))
	for _, p := range listed {
		export[p.ImportPath] = p.Export
	}
	fset := token.NewFileSet()
	imp := sourceImporter{
		checked: map[string]*types.Package{},
		gc: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
			return os.Open(export[path])
		}),
	}

	used := map[types.Object]bool{}
	called := map[*types.Func]bool{} // interface methods non-test code calls
	var named []*types.TypeName      // every type declared in non-test code
	declared := map[types.Object]string{}

	for _, p := range listed {
		if p.Standard {
			continue
		}
		files := make([]*ast.File, len(p.GoFiles))
		for i, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files[i] = f
		}
		info := &types.Info{
			Defs: map[*ast.Ident]types.Object{},
			Uses: map[*ast.Ident]types.Object{},
		}
		pkg, err := (&types.Config{Importer: imp}).Check(p.ImportPath, fset, files, info)
		if err != nil {
			t.Fatalf("type-check %s: %v", p.ImportPath, err)
		}
		imp.checked[p.ImportPath] = pkg

		for _, obj := range info.Uses {
			obj = origin(obj)
			used[obj] = true
			if fn, ok := obj.(*types.Func); ok {
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
					called[fn] = true
				}
			}
		}
		for _, obj := range info.Defs {
			if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
				named = append(named, tn)
			}
		}

		rel, ok := strings.CutPrefix(p.ImportPath, "dmx/internal/")
		if !ok {
			continue
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() {
				declared[obj] = rel + "." + name
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			nt := tn.Type().(*types.Named)
			for i := 0; i < nt.NumMethods(); i++ {
				if m := nt.Method(i); m.Exported() {
					declared[m] = rel + "." + name + "." + m.Name()
				}
			}
			if it, ok := nt.Underlying().(*types.Interface); ok {
				for i := 0; i < it.NumExplicitMethods(); i++ {
					if m := it.ExplicitMethod(i); m.Exported() {
						declared[m] = rel + "." + name + "." + m.Name()
					}
				}
			}
		}
	}

	// The standard library calls these through its own interfaces.
	fmtPkg, err := imp.Import("fmt")
	if err != nil {
		t.Fatal(err)
	}
	stringer := fmtPkg.Scope().Lookup("Stringer").Type().Underlying().(*types.Interface)
	errIface := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	called[stringer.Method(0)] = true
	called[errIface.Method(0)] = true

	// A called interface method uses every method that implements it.
	for call := range called {
		iface := call.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
		for _, tn := range named {
			for _, typ := range []types.Type{tn.Type(), types.NewPointer(tn.Type())} {
				if !types.Implements(typ, iface) {
					continue
				}
				if m, _, _ := types.LookupFieldOrMethod(typ, true, call.Pkg(), call.Name()); m != nil {
					used[origin(m)] = true
				}
				break
			}
		}
	}

	var unused []string
	for obj, name := range declared {
		if !used[obj] {
			unused = append(unused, name)
		}
	}
	sort.Strings(unused)
	return unused
}

// readAllowList parses the allow-list: one "name reason..." per line,
// blank lines and # comments skipped. Every name needs a reason.
func readAllowList(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(surfaceAllowList)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	allowed := map[string]string{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, " ")
		if reason = strings.TrimSpace(reason); reason == "" {
			t.Errorf("%s:%d: %s has no reason", surfaceAllowList, n, name)
		}
		if _, dup := allowed[name]; dup {
			t.Errorf("%s:%d: %s listed twice", surfaceAllowList, n, name)
		}
		allowed[name] = reason
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return allowed
}

func TestInternalSurface(t *testing.T) {
	allowed := readAllowList(t)
	unused := unusedInternalExports(t)

	var add, stale []string
	flagged := map[string]bool{}
	for _, name := range unused {
		flagged[name] = true
		if _, ok := allowed[name]; !ok {
			add = append(add, name)
		}
	}
	for name := range allowed {
		if !flagged[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(stale)
	var msg strings.Builder
	if len(add) > 0 {
		fmt.Fprintf(&msg, "\nexports in internal/ that only tests use; delete them, use them, or add to %s with a reason:\n", surfaceAllowList)
		for _, name := range add {
			fmt.Fprintf(&msg, "+%s <reason>\n", name)
		}
	}
	if len(stale) > 0 {
		fmt.Fprintf(&msg, "\n%s lines whose name is now used or gone; remove them:\n", surfaceAllowList)
		for _, name := range stale {
			fmt.Fprintf(&msg, "-%s %s\n", name, allowed[name])
		}
	}
	if msg.Len() > 0 {
		t.Error(msg.String())
	}
}
