package eona_test

import (
	"errors"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// keptExports lists the exported names in internal/ that no non-test package
// uses, each with the reason it stays. Keys are "pkg.Name" or
// "pkg.Type.Method". Any other exported name without a production caller
// fails TestInternalExportsHaveACaller: delete it, or add it here with a
// reason that holds.
var keptExports = map[string]string{
	// Reference oracles.
	"netsim.Replay":   "reference oracle: the serial replay the netsim and journal tests compare against",
	"projection.Fold": "reference oracle: the from-scratch fold the resume and crash tests compare against",

	// Test infrastructure that other packages' tests import.
	"journal.FrameBoundaries": "the projection crash sweep cuts segments at every frame boundary",
	"journal.SegmentPaths":    "the projection crash sweep finds the segments to tear",
	"auth.Store.Revoke":       "the lookingglass tests turn a token bad while a poll is in flight",

	// Durability.
	"journal.Writer.Sync": "makes appended records durable on demand",

	// Documented API.
	"lookingglass.Server.ListenAndServe": "README's serving example",

	// The journaled op vocabulary: narrowing it is a segment-format decision.
	"netsim.SharedNetwork.SetWeight": "journaled op kind",
	"netsim.SharedNetwork.SetPath":   "journaled op kind",
	"netsim.Driver.SetWeight":        "journaled op kind",
	"netsim.Driver.SetPath":          "journaled op kind",

	// Observers of state that production maintains.
	"agg.CountMin.Estimate":                    "reads the counts CountMin maintains",
	"agg.P2.Value":                             "reads the quantile estimate P2 maintains",
	"cdn.Cache.Contains":                       "reads the cache's resident set",
	"core.Interface.Contains":                  "reads a negotiated interface's attribute set",
	"core.Registry.Partner":                    "reads a registered partner",
	"journal.Writer.Ops":                       "reads the writer's op count",
	"lookingglass.Snapshot.Get":                "reads the poller's last good value",
	"lookingglass.Snapshot.Err":                "reads the poller's last error",
	"lookingglass.Snapshot.Confidence":         "reads the poller's freshness confidence",
	"lookingglass.Snapshot.LastAttempt":        "reads when the poller last tried",
	"lookingglass.Breaker.ConsecutiveFailures": "reads the breaker's failure count",
	"lookingglass.Client.ServerHints":          "reads the hints the last response carried",
	"lookingglass.Routes.Table":                "reads the route table the server serves",
	"netsim.Network.ActiveFlowsOn":             "reads the flows the allocator keeps per link",
	"projection.LinkUtil.Series":               "reads the utilisation series the projection keeps",
	"stability.Tracker.Current":                "reads the tracker's current choice",
}

// TestInternalExportsHaveACaller type-checks every non-test package of the
// module and of the nested bench/ module, and fails on each exported func,
// method, type or const in internal/ that none of them uses. A method counts
// as used when a type whose method set holds it satisfies an interface with
// a method of that name, or when its body is a single return statement (an
// accessor). Struct fields are out of scope. A name whose only use is in
// another unused name is reported once that one is deleted.
func TestInternalExportsHaveACaller(t *testing.T) {
	s := newExportScan(t)
	unused := s.unusedInternalExports()

	var missing []string
	for key, pos := range unused {
		if _, ok := keptExports[key]; !ok {
			missing = append(missing, pos+": "+key)
		}
	}
	sort.Strings(missing)
	for _, m := range missing {
		t.Errorf("%s has no non-test caller: delete it or list it in keptExports with a reason", m)
	}
	for key := range keptExports {
		if _, ok := unused[key]; !ok {
			t.Errorf("keptExports lists %s, which is gone or has a caller now: drop the entry", key)
		}
	}
}

// exportScan type-checks the repository's non-test packages from source.
type exportScan struct {
	fset  *token.FileSet
	std   types.Importer
	dirs  map[string]string // import path -> directory, for this repository's packages
	pkgs  map[string]*types.Package
	infos map[string]*types.Info
	files map[string][]*ast.File
}

func newExportScan(t *testing.T) *exportScan {
	t.Helper()
	fset := token.NewFileSet()
	s := &exportScan{
		fset:  fset,
		std:   importer.ForCompiler(fset, "source", nil),
		dirs:  map[string]string{},
		pkgs:  map[string]*types.Package{},
		infos: map[string]*types.Info{},
		files: map[string][]*ast.File{},
	}
	// The root is module "eona" and bench/ is module "eona/bench", so a
	// directory's import path is "eona/" + its path in both.
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		ip := "eona"
		if path != "." {
			ip += "/" + filepath.ToSlash(path)
		}
		s.dirs[ip] = path
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	paths := make([]string, 0, len(s.dirs))
	for ip := range s.dirs {
		paths = append(paths, ip)
	}
	sort.Strings(paths)
	for _, ip := range paths {
		if _, err := s.Import(ip); err != nil && !errors.Is(err, errNoGo) {
			t.Fatalf("type-check %s: %v", ip, err)
		}
	}
	return s
}

var errNoGo = errors.New("no non-test Go files")

// Import type-checks a package of this repository from its non-test files
// and defers every other import to the standard library's source importer.
func (s *exportScan) Import(path string) (*types.Package, error) {
	if p, ok := s.pkgs[path]; ok {
		return p, nil
	}
	dir, ok := s.dirs[path]
	if !ok {
		return s.std.Import(path)
	}
	bp, err := build.Default.ImportDir(dir, 0)
	var noGo *build.NoGoError
	if errors.As(err, &noGo) {
		return nil, errNoGo
	}
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(s.fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	pkg, err := (&types.Config{Importer: s}).Check(path, s.fset, files, info)
	if err != nil {
		return nil, err
	}
	s.pkgs[path], s.infos[path], s.files[path] = pkg, info, files
	return pkg, nil
}

// unusedInternalExports returns each exported name in internal/ that no
// scanned package uses, keyed as in keptExports, with its position.
func (s *exportScan) unusedInternalExports() map[string]string {
	used := map[types.Object]bool{}
	accessors := map[types.Object]bool{}
	for path, files := range s.files {
		info := s.infos[path]
		for _, f := range files {
			for _, d := range f.Decls {
				markUses(info, d, used)
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil && fd.Body != nil && len(fd.Body.List) == 1 {
					if _, ok := fd.Body.List[0].(*ast.ReturnStmt); ok {
						accessors[info.Defs[fd.Name]] = true
					}
				}
			}
		}
	}
	viaIface := s.interfaceMethods()

	unused := map[string]string{}
	report := func(obj types.Object, key string) {
		if !used[obj] {
			unused[key] = s.fset.Position(obj.Pos()).String()
		}
	}
	for path, pkg := range s.pkgs {
		if !strings.HasPrefix(path, "eona/internal/") {
			continue
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			switch obj.(type) {
			case *types.Func, *types.Const, *types.TypeName:
				if obj.Exported() {
					report(obj, pkg.Name()+"."+name)
				}
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if !m.Exported() || accessors[m] || viaIface[m] {
					continue
				}
				report(m, pkg.Name()+"."+name+"."+m.Name())
			}
		}
	}
	return unused
}

// markUses records every object decl uses, except a declaration's uses of
// itself: a recursive call, a self-referencing type, or a method's receiver
// naming its own type.
func markUses(info *types.Info, decl ast.Decl, used map[types.Object]bool) {
	mark := func(n ast.Node, self types.Object) {
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := info.Uses[id]; obj != nil && obj != self {
					if fn, ok := obj.(*types.Func); ok {
						obj = fn.Origin()
					}
					used[obj] = true
				}
			}
			return true
		})
	}
	switch d := decl.(type) {
	case *ast.FuncDecl:
		self := info.Defs[d.Name]
		mark(d.Type, self)
		if d.Body != nil {
			mark(d.Body, self)
		}
	case *ast.GenDecl:
		for _, s := range d.Specs {
			switch s := s.(type) {
			case *ast.TypeSpec:
				mark(s, info.Defs[s.Name])
			default:
				mark(s, nil)
			}
		}
	}
}

// interfaceMethods returns each method that a type in the scanned packages
// has in its method set, itself or promoted from an embedded field, where
// that type satisfies an interface with a method of the same name. The
// interfaces are those the scanned packages and their imports declare, plus
// the predeclared error.
func (s *exportScan) interfaceMethods() map[types.Object]bool {
	byName := map[string][]*types.Interface{}
	addIface := func(it *types.Interface) {
		for i := 0; i < it.NumMethods(); i++ {
			byName[it.Method(i).Name()] = append(byName[it.Method(i).Name()], it)
		}
	}
	addIface(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	var named []*types.Named
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		_, scanned := s.pkgs[p.Path()]
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			n, ok := tn.Type().(*types.Named)
			if !ok || n.TypeParams().Len() > 0 {
				continue
			}
			if it, ok := n.Underlying().(*types.Interface); ok {
				if it.IsMethodSet() {
					addIface(it)
				}
			} else if scanned {
				named = append(named, n)
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, p := range s.pkgs {
		visit(p)
	}

	out := map[types.Object]bool{}
	for _, n := range named {
		for _, t := range []types.Type{n, types.NewPointer(n)} {
			ms := types.NewMethodSet(t)
			for i := 0; i < ms.Len(); i++ {
				m := ms.At(i).Obj()
				if out[m] {
					continue
				}
				for _, it := range byName[m.Name()] {
					if types.Implements(t, it) {
						out[m] = true
						break
					}
				}
			}
		}
	}
	return out
}
