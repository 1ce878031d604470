package eona_test

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
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
	"agg.CountMin.Estimate":             "reads the counts CountMin maintains",
	"agg.P2.Value":                      "reads the quantile estimate P2 maintains",
	"cdn.Cache.Contains":                "reads the cache's resident set",
	"core.Interface.Contains":           "reads a negotiated interface's attribute set",
	"core.Registry.Partner":             "reads a registered partner",
	"journal.Writer.Ops":                "reads the writer's op count",
	"lookingglass.Snapshot.Get":         "reads the poller's last good value",
	"lookingglass.Snapshot.Err":         "reads the poller's last error",
	"lookingglass.Snapshot.Confidence":  "reads the poller's freshness confidence",
	"lookingglass.Snapshot.LastAttempt": "reads when the poller last tried",
	"lookingglass.Client.ServerHints":   "reads the hints the last response carried",
	"lookingglass.Routes.Table":         "reads the route table the server serves",
	"netsim.Network.ActiveFlowsOn":      "reads the flows the allocator keeps per link",
	"projection.LinkUtil.Series":        "reads the utilisation series the projection keeps",
	"stability.Tracker.Current":         "reads the tracker's current choice",
}

// TestInternalExportsHaveACaller type-checks every non-test package of the
// module and of the nested bench/ module, and fails on each exported func,
// method, type or const in internal/ that none of them uses. A method counts
// as used when a type whose method set holds it satisfies an interface with
// a method of that name, or when its body is a single return statement (an
// accessor). TestInternalFieldsHaveAReader checks struct fields. A name
// whose only use is in another unused name is reported once that one is
// deleted.
func TestInternalExportsHaveACaller(t *testing.T) {
	s := sharedScan(t)
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

// The two guards share one type-check of the repository.
var (
	scanOnce sync.Once
	scan     *exportScan
	scanErr  error
)

func sharedScan(t *testing.T) *exportScan {
	t.Helper()
	scanOnce.Do(func() { scan, scanErr = newExportScan() })
	if scanErr != nil {
		t.Fatal(scanErr)
	}
	return scan
}

func newExportScan() (*exportScan, error) {
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
		return nil, err
	}
	paths := make([]string, 0, len(s.dirs))
	for ip := range s.dirs {
		paths = append(paths, ip)
	}
	sort.Strings(paths)
	for _, ip := range paths {
		if _, err := s.Import(ip); err != nil && !errors.Is(err, errNoGo) {
			return nil, fmt.Errorf("type-check %s: %w", ip, err)
		}
	}
	return s, nil
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
	info := &types.Info{
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Types:      map[ast.Expr]types.TypeAndValue{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
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

// keptFields lists the struct fields in internal/ that
// TestInternalFieldsHaveAReader would report, each with the reason it stays.
// Keys are "pkg.Type.Field", with one more ".Field" per nested anonymous
// struct. A result field stays only when a named test asserts a property
// through it that nothing else shows; an option stays only when a test sets
// it to produce a result the docs report, or to reach a state no production
// setting reaches in test time.
var keptFields = map[string]string{
	// Result fields a test is the reader of.
	"expt.E1Result.CapEpochs":    "TestE1EONAImprovesExperience: the EONA cap engages",
	"expt.E4Result.ColdMisses":   "TestE4ColdMisses: EONA failover causes zero cold misses at CDN Y",
	"expt.E4Result.WarmHitRatio": "TestE4ColdMisses: CDN X's cache is warm when its server fails",
	"isp.ISP.EgressChanges":      "TestFullStackFigure5OverHTTP: one egress change and no churn (Fig. 5)",

	// Ablation arms: the ablation tests are how EXPERIMENTS.md's ablation
	// results are produced.
	"expt.E1Config.UniformCap":       "TestAblationMixedRungCap: the uniform-cap ablation arm",
	"expt.Fig5Config.DampHysteresis": "TestAblationDampeningComponents: the hysteresis-only arm",
	"expt.Fig5Config.DampBackoff":    "TestAblationDampeningComponents: the backoff-only arm",
}

// TestInternalFieldsHaveAReader scans the type-checked packages of
// TestInternalExportsHaveACaller and fails on each struct field of a type
// declared in internal/, exported or not, that non-test code never reads, or
// that it reads but never sets. A field that stays anyway goes in keptFields
// with a reason; an entry that no longer needs to be there fails too.
//
//   - A read is a field selector that is not the target of =, op= or ++/--.
//     Taking &x.f counts as a read, and as a set.
//   - A set is an assignment target, including x.f[i] =, or an entry of a
//     composite literal, keyed or not: linkChange{tgt.ID, degraded} sets
//     both of linkChange's fields. The fields on the target's selector
//     chain are set too (b.c.Opens++ sets b.c); one of pointer type is also
//     read, since the write goes through it.
//   - A call of a pointer-receiver method through a field (x.mu.Lock())
//     reads the field and sets it.
//   - An assignment inside a value-receiver method of the field's own type
//     (a withDefaults that fills a copy's zero fields) writes a copy and
//     does not set the field.
//   - A field or method promoted through an embedded field reads the
//     embedded field, and sets it when the selector sets. An embedded field
//     that promotes a method counts as read and set.
//   - A field of a generic type is resolved to its declaration through
//     (*types.Var).Origin.
//   - Every exported field of a struct type reachable from a JSON-tagged
//     struct, or from a value passed to encoding/json, lookingglass.WriteJSON
//     or wire's Encode, AppendEncode and DecodePayload, is read and set: the
//     codec does both.
//
// A field read only by another reported field is reported once that one is
// deleted.
func TestInternalFieldsHaveAReader(t *testing.T) {
	s := sharedScan(t)
	found := s.unreadInternalFields()

	var missing []string
	for key, f := range found {
		if _, ok := keptFields[key]; !ok {
			missing = append(missing, f+": "+key)
		}
	}
	sort.Strings(missing)
	for _, m := range missing {
		t.Errorf("%s: delete it or list it in keptFields with a reason", m)
	}
	for key := range keptFields {
		if _, ok := found[key]; !ok {
			t.Errorf("keptFields lists %s, which is gone or has a non-test reader and setter now: drop the entry", key)
		}
	}
}

// fieldUse records whether non-test code reads and sets a field.
type fieldUse struct{ read, set bool }

// jsonSinks are the functions outside encoding/json that JSON-encode or
// decode the values passed to them.
var jsonSinks = map[string]bool{
	"eona/internal/lookingglass.WriteJSON": true,
	"eona/internal/wire.Encode":            true,
	"eona/internal/wire.AppendEncode":      true,
	"eona/internal/wire.DecodePayload":     true,
}

// unreadInternalFields returns each field in internal/ that non-test code
// never reads, or reads but never sets, keyed as in keptFields, with its
// position and what it lacks.
func (s *exportScan) unreadInternalFields() map[string]string {
	keys := map[*types.Var]string{}
	owner := map[*types.Var]*types.TypeName{}
	var tagged []types.Type
	for path, info := range s.infos {
		internal := strings.HasPrefix(path, "eona/internal/")
		for _, obj := range info.Defs {
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			if hasJSONTag(st) {
				tagged = append(tagged, tn.Type())
			}
			if internal {
				declaredFields(st, tn.Pkg().Name()+"."+tn.Name()+".", func(f *types.Var, key string) {
					keys[f], owner[f] = key, tn
				})
			}
		}
	}

	uses := map[*types.Var]*fieldUse{}
	use := func(f *types.Var) *fieldUse {
		f = f.Origin()
		u := uses[f]
		if u == nil {
			u = &fieldUse{}
			uses[f] = u
		}
		return u
	}
	seen := map[types.Type]bool{}
	for _, t := range tagged {
		markJSON(t, use, seen)
	}
	for path, files := range s.files {
		for _, f := range files {
			for _, d := range f.Decls {
				markFieldUses(s.infos[path], d, owner, use, seen)
			}
		}
	}

	out := map[string]string{}
	for f, key := range keys {
		u := use(f)
		switch {
		case f.Embedded() && (types.NewMethodSet(f.Type()).Len() > 0 || types.NewMethodSet(types.NewPointer(f.Type())).Len() > 0):
			// The methods it promotes read it.
		case !u.read:
			out[key] = s.fset.Position(f.Pos()).String() + ": no non-test reader"
		case !u.set:
			out[key] = s.fset.Position(f.Pos()).String() + ": no non-test setter"
		}
	}
	return out
}

// declaredFields calls fn with each field of st and of the anonymous structs
// nested in it, and its key.
func declaredFields(st *types.Struct, prefix string, fn func(*types.Var, string)) {
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		fn(f, prefix+f.Name())
		if inner := anonStruct(f.Type()); inner != nil {
			declaredFields(inner, prefix+f.Name()+".", fn)
		}
	}
}

// anonStruct returns the unnamed struct type t holds directly or as the
// element of a pointer, slice, array or map, or nil.
func anonStruct(t types.Type) *types.Struct {
	for {
		switch u := t.(type) {
		case *types.Struct:
			return u
		case *types.Pointer:
			t = u.Elem()
		case *types.Slice:
			t = u.Elem()
		case *types.Array:
			t = u.Elem()
		case *types.Map:
			t = u.Elem()
		default:
			return nil
		}
	}
}

func hasJSONTag(st *types.Struct) bool {
	for i := 0; i < st.NumFields(); i++ {
		if _, ok := reflect.StructTag(st.Tag(i)).Lookup("json"); ok {
			return true
		}
	}
	return false
}

// markJSON marks read and set every exported field that encoding/json
// reaches from a value of type t.
func markJSON(t types.Type, use func(*types.Var) *fieldUse, seen map[types.Type]bool) {
	if seen[t] {
		return
	}
	seen[t] = true
	switch u := t.(type) {
	case *types.Named:
		markJSON(u.Underlying(), use, seen)
	case *types.Pointer:
		markJSON(u.Elem(), use, seen)
	case *types.Slice:
		markJSON(u.Elem(), use, seen)
	case *types.Array:
		markJSON(u.Elem(), use, seen)
	case *types.Map:
		markJSON(u.Key(), use, seen)
		markJSON(u.Elem(), use, seen)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			f := u.Field(i)
			if !f.Exported() || reflect.StructTag(u.Tag(i)).Get("json") == "-" {
				continue
			}
			fu := use(f)
			fu.read, fu.set = true, true
			markJSON(f.Type(), use, seen)
		}
	}
}

// markFieldUses records the field reads and sets in decl, by the rules in
// TestInternalFieldsHaveAReader's doc.
func markFieldUses(info *types.Info, decl ast.Decl, owner map[*types.Var]*types.TypeName, use func(*types.Var) *fieldUse, seen map[types.Type]bool) {
	// A value-receiver method's assignments to its own type's fields write
	// a copy.
	var self *types.TypeName
	if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv != nil {
		if n, ok := info.Defs[fd.Name].(*types.Func).Type().(*types.Signature).Recv().Type().(*types.Named); ok {
			self = n.Origin().Obj()
		}
	}

	// target holds the selectors an assignment stores into, set those a
	// pointer to the field escapes from (&x.f, x.f.PtrMethod()), and
	// through the pointer fields an assignment or escape dereferences.
	target := map[*ast.SelectorExpr]bool{}
	set := map[*ast.SelectorExpr]bool{}
	through := map[*ast.SelectorExpr]bool{}
	chain := func(e ast.Expr, into map[*ast.SelectorExpr]bool) {
		deref := false
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
			case *ast.IndexExpr:
				e, deref = x.X, false
			case *ast.StarExpr:
				e, deref = x.X, true
			case *ast.SelectorExpr:
				sel := info.Selections[x]
				if sel == nil || sel.Kind() != types.FieldVal {
					return
				}
				if deref {
					through[x] = true
				} else {
					into[x] = true
				}
				e, deref = x.X, sel.Indirect()
			default:
				return
			}
		}
	}
	ast.Inspect(decl, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, l := range n.Lhs {
				chain(l, target)
			}
		case *ast.IncDecStmt:
			chain(n.X, target)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				chain(n.X, set)
			}
		case *ast.SelectorExpr:
			if sel := info.Selections[n]; sel != nil && ptrMethod(sel) && !isPointer(info.TypeOf(n.X)) {
				chain(n.X, set)
			}
		case *ast.CompositeLit:
			t := info.TypeOf(n)
			if p, ok := t.Underlying().(*types.Pointer); ok {
				t = p.Elem()
			}
			st, ok := t.Underlying().(*types.Struct)
			if !ok {
				break
			}
			for i, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					use(info.Uses[kv.Key.(*ast.Ident)].(*types.Var)).set = true
				} else {
					use(st.Field(i)).set = true
				}
			}
		case *ast.CallExpr:
			id := calleeIdent(n.Fun)
			fn, ok := info.Uses[id].(*types.Func)
			if !ok || fn.Pkg() == nil || (fn.Pkg().Path() != "encoding/json" && !jsonSinks[fn.Pkg().Path()+"."+fn.Name()]) {
				break
			}
			for _, a := range n.Args {
				markJSON(info.TypeOf(a), use, seen)
			}
			if inst, ok := info.Instances[id]; ok {
				for i := 0; i < inst.TypeArgs.Len(); i++ {
					markJSON(inst.TypeArgs.At(i), use, seen)
				}
			}
		}
		return true
	})

	ast.Inspect(decl, func(n ast.Node) bool {
		x, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		sel := info.Selections[x]
		if sel == nil {
			return true
		}
		// The embedded fields a promoted field or method is reached
		// through, then the selected field itself.
		var path []*types.Var
		t := sel.Recv()
		for _, i := range sel.Index()[:len(sel.Index())-1] {
			if p, ok := t.Underlying().(*types.Pointer); ok {
				t = p.Elem()
			}
			f := t.Underlying().(*types.Struct).Field(i)
			path = append(path, f)
			t = f.Type()
		}
		if sel.Kind() == types.FieldVal {
			path = append(path, sel.Obj().(*types.Var))
		}
		for _, f := range path {
			u := use(f)
			if !target[x] {
				u.read = true
			}
			if set[x] || through[x] || (target[x] && (self == nil || owner[f.Origin()] != self)) ||
				(sel.Kind() == types.MethodVal && ptrMethod(sel)) {
				u.set = true
			}
		}
		return true
	})
}

// calleeIdent returns the identifier naming the function a call expression
// calls, through parentheses, a package qualifier or a method selector and
// an explicit instantiation, or nil.
func calleeIdent(fun ast.Expr) *ast.Ident {
	for {
		switch f := fun.(type) {
		case *ast.ParenExpr:
			fun = f.X
		case *ast.IndexExpr:
			fun = f.X
		case *ast.IndexListExpr:
			fun = f.X
		case *ast.SelectorExpr:
			return f.Sel
		case *ast.Ident:
			return f
		default:
			return nil
		}
	}
}

func ptrMethod(sel *types.Selection) bool {
	return sel.Kind() == types.MethodVal && isPointer(sel.Obj().Type().(*types.Signature).Recv().Type())
}

func isPointer(t types.Type) bool {
	_, ok := t.Underlying().(*types.Pointer)
	return ok
}
