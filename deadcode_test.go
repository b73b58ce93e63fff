package hostsim_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"maps"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// keptUnreferenced lists the package-level declarations that no non-test
// code uses but that stay on purpose, keyed by directory and
// [receiver.]name, each with the reason it is kept.
var keptUnreferenced = map[string]string{
	"hostsim.RunMany":                          "public batch API; the determinism tests drive it",
	"hostsim.WithParallelism":                  "public RunMany option; the determinism tests set it",
	"hostsim.Result.MessageRecords":            "public accessor for message-trace records",
	"internal/cache.DCA.Hazard":                "state accessor the DCA hazard tests read",
	"internal/cache.DCA.Contains":              "residency read that counts nothing; the DCA tests check Consume and the map oracle against it",
	"internal/exec.Core.BusyTime":              "state accessor the scheduler tests read",
	"internal/exec.Core.Accounting":            "state accessor the accounting tests read",
	"internal/exec.Core.SkewAccounting":        "fault hook: the checker tests inject a double charge",
	"internal/exec.Thread.Blocked":             "state accessor the scheduler tests read",
	"internal/mem.Allocator.InUse":             "state accessor the page-pool tests read",
	"internal/mem.Allocator.PagesetLen":        "state accessor the page-pool tests read",
	"internal/sim.Engine.Fired":                "events fired; the planned run manifest reads it",
	"internal/sim.Timer.When":                  "state accessor the timer tests read",
	"internal/telemetry.Sampler.Evicted":       "ring-eviction count the sampler tests read",
	"internal/figures.CacheSize":               "memo size the figure-cache tests read",
	"internal/core.Host.Written":               "bytes-written counter the core tests read",
	"internal/core.Host.Endpoints":             "endpoint count the core tests read",
	"internal/profile.Profiler.TotalCycles":    "profile total the profiler tests reconcile",
	"internal/profile.Profiler.CategoryTotals": "per-category totals the profiler tests reconcile",
	"internal/metrics.Histogram.RecordN":       "bulk record the histogram tests check against Record",
	"internal/metrics.Histogram.Buckets":       "bucket view the histogram tests read",
	"internal/skb.SegmentSizes":                "GSO/TSO split the skb and tcp tests check segments against",
	"internal/inspect.FlagFIN":                 "TCP flag enum member, kept with its siblings",
	"internal/inspect.FlagSYN":                 "TCP flag enum member, kept with its siblings",
	"internal/inspect.FlagRST":                 "TCP flag enum member, kept with its siblings",
	"internal/units.MHz":                       "frequency unit, kept with its siblings",
	"internal/units.GHz":                       "frequency unit, kept with its siblings",
	"hostsim.CostNames":                        "public list of the Config.CostScale keys, which cmd/validate -scale points to; the fuzz tests draw knob names from it",
	"internal/inspect.Capture.Records":         "public through hostsim.PacketCapture; the capture tests read the records",
	"internal/inspect.ProbeTrace.Records":      "public through hostsim.ProbeTrace; the probe tests read the records",
	"internal/inspect.ProbeTrace.Truncated":    "public through hostsim.ProbeTrace; the probe tests read the overflow count",
	"internal/telemetry.Timeline.Column":       "public through hostsim.Timeline; the telemetry and ss tests read columns",
	"internal/telemetry.Timeline.Row":          "public through hostsim.Timeline; the sampler tests read rows",
	"internal/sim.Engine.Pending":              "queue depth the scheduler tests and the FuzzScheduler oracle compare",
}

// stdInterfaces are the standard interfaces whose methods the standard
// library calls without naming them. They seed the embedding rule of
// unusedDecls: a method is used when its type implements one of them.
var stdInterfaces = []struct{ pkg, name string }{
	{"", "error"}, {"fmt", "Stringer"}, {"encoding/json", "Marshaler"},
	{"sort", "Interface"}, {"container/heap", "Interface"}, {"flag", "Value"},
}

// srcPackage is one package of the module: its import path, the key
// prefix its declarations are reported under, and its parsed non-test
// files. Users' declarations are not checked, only their uses counted.
type srcPackage struct {
	path, key string
	files     []*ast.File
	user      bool
}

// typedModule is a type-checked set of packages: their files, the one
// types.Info every file fills, and the importer that resolved them.
type typedModule struct {
	fset *token.FileSet
	pkgs []*srcPackage
	info *types.Info
	imp  types.Importer
}

// typeCheck type-checks pkgs, importing each other by path and anything
// else through std.
func typeCheck(fset *token.FileSet, pkgs []*srcPackage, std types.Importer) (*typedModule, error) {
	byPath := map[string]*srcPackage{}
	for _, p := range pkgs {
		byPath[p.path] = p
	}
	checked := map[string]*types.Package{}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	var check func(p *srcPackage) (*types.Package, error)
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p := byPath[path]; p != nil {
			return check(p)
		}
		return std.Import(path)
	})
	check = func(p *srcPackage) (*types.Package, error) {
		if tp, ok := checked[p.path]; ok {
			if tp == nil {
				return nil, fmt.Errorf("import cycle through %s", p.path)
			}
			return tp, nil
		}
		checked[p.path] = nil
		conf := types.Config{Importer: imp}
		tp, err := conf.Check(p.path, fset, p.files, info)
		if err != nil {
			return nil, err
		}
		checked[p.path] = tp
		return tp, nil
	}
	for _, p := range pkgs {
		if _, err := check(p); err != nil {
			return nil, err
		}
	}
	return &typedModule{fset: fset, pkgs: pkgs, info: info, imp: imp}, nil
}

// unusedDecls returns the package-level declarations of the non-user
// packages of a type-checked module that nothing uses, keyed
// "key.[recv.]name". A declaration is used when some file's
// types.Info.Uses or Selections resolves to its exact object. A method is
// also used when it is in the method set of a named type that implements
// an interface whose method of that name is used; every method of
// stdInterfaces counts as used.
func unusedDecls(tm *typedModule) (map[string]token.Position, error) {
	fset, pkgs, info, imp := tm.fset, tm.pkgs, tm.info, tm.imp
	used := map[types.Object]bool{}
	var ifaceMethods []*types.Func
	use := func(obj types.Object) {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
			if recv := o.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) && !used[obj] {
				ifaceMethods = append(ifaceMethods, o)
			}
		case *types.Var:
			obj = o.Origin()
		}
		used[obj] = true
	}
	for _, obj := range info.Uses {
		use(obj)
	}
	for _, sel := range info.Selections {
		use(sel.Obj())
	}
	for _, si := range stdInterfaces {
		scope := types.Universe
		if si.pkg != "" {
			p, err := imp.Import(si.pkg)
			if err != nil {
				return nil, err
			}
			scope = p.Scope()
		}
		iface := scope.Lookup(si.name).Type().Underlying().(*types.Interface)
		for i := 0; i < iface.NumMethods(); i++ {
			ifaceMethods = append(ifaceMethods, iface.Method(i))
		}
	}
	// The embedding rule: a method reached through an interface call.
	for _, obj := range info.Defs {
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok || named.TypeParams().Len() > 0 {
			continue
		}
		ptr := types.NewPointer(named)
		mset := types.NewMethodSet(ptr)
		for _, m := range ifaceMethods {
			iface := m.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
			if sel := mset.Lookup(m.Pkg(), m.Name()); sel != nil && types.Implements(ptr, iface) {
				used[sel.Obj().(*types.Func).Origin()] = true
			}
		}
	}

	unused := map[string]token.Position{}
	for _, p := range pkgs {
		if p.user {
			continue
		}
		for _, f := range p.files {
			for _, gd := range f.Decls {
				var names []*ast.Ident
				prefix := ""
				switch gd := gd.(type) {
				case *ast.FuncDecl:
					if gd.Recv == nil && (gd.Name.Name == "main" || gd.Name.Name == "init") {
						continue
					}
					if gd.Recv != nil {
						prefix = recvName(gd.Recv.List[0].Type) + "."
					}
					names = append(names, gd.Name)
				case *ast.GenDecl:
					for _, spec := range gd.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							names = append(names, s.Name)
						case *ast.ValueSpec:
							names = append(names, s.Names...)
						}
					}
				}
				for _, id := range names {
					if id.Name != "_" && !used[info.Defs[id]] {
						unused[p.key+"."+prefix+id.Name] = fset.Position(id.Pos())
					}
				}
			}
		}
	}
	return unused, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// modulePackages parses the non-test Go files of every package under the
// module root that the default build context selects, skipping testdata
// and dot directories. bench/, cmd/ and examples/ are users only.
func modulePackages(fset *token.FileSet, module string) ([]*srcPackage, error) {
	byDir := map[string]*srcPackage{}
	var pkgs []*srcPackage
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		dir, name := filepath.Dir(p), d.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel := filepath.ToSlash(dir)
		pkg := byDir[rel]
		if pkg == nil {
			top, _, _ := strings.Cut(rel, "/")
			pkg = &srcPackage{path: path.Join(module, rel), key: rel,
				user: top == "bench" || top == "cmd" || top == "examples"}
			if rel == "." {
				pkg.key = module
			}
			byDir[rel] = pkg
			pkgs = append(pkgs, pkg)
		}
		pkg.files = append(pkg.files, f)
		return nil
	})
	return pkgs, err
}

// keptKnobs lists the knobs that no program sets but that stay on
// purpose, each with the reason it is kept: those reachable from Config,
// keyed "Type.Field" as uncalledKnobs reports them, and the fields of
// internal option structs, keyed "pkg.Type.Field" as uncalledOptions
// reports them.
var keptKnobs = map[string]string{
	"Stack.SndBufBytes": "TestTinyBuffersDoNotDeadlock and the committed FuzzRunRaw SndBuf crasher set it; " +
		"the crasher's corpus file fixes the fuzz argument list",
	"FabricOptions.HostNames": "validate.go names the default pair with it; TestFabricIncastN1MatchesDirect " +
		"names a 2-host fabric like the pair to compare the two field for field",
	"tcp.Config.MSS": "every connection sets it: it arrives through DefaultConfig's argument, which core derives " +
		"from the stack's MTU",
}

// loadModule parses and type-checks this module's non-test code once per
// test binary; the guards share the result.
var loadModule = sync.OnceValues(func() (*typedModule, error) {
	fset := token.NewFileSet()
	pkgs, err := modulePackages(fset, "hostsim")
	if err != nil {
		return nil, err
	}
	return typeCheck(fset, pkgs, importer.ForCompiler(fset, "source", nil))
})

// writers maps each struct field some file of the module writes to the
// import paths of the packages whose files write it.
type writers map[types.Object]map[string]bool

// fieldWriters collects the field writes of every file of tm. A write is
// a composite-literal key, the left side of an assignment or increment,
// or &x.F; every field selected along that left side or operand counts as
// written, so c.Tuning.PagesetCap = n writes both Tuning and PagesetCap.
func fieldWriters(tm *typedModule) writers {
	w := writers{}
	for _, p := range tm.pkgs {
		mark := func(f types.Object) {
			if w[f] == nil {
				w[f] = map[string]bool{}
			}
			w[f][p.path] = true
		}
		write := func(e ast.Expr) {
			for {
				switch x := e.(type) {
				case *ast.ParenExpr:
					e = x.X
				case *ast.StarExpr:
					e = x.X
				case *ast.IndexExpr:
					e = x.X
				case *ast.SelectorExpr:
					if sel := tm.info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
						mark(sel.Obj())
					}
					e = x.X
				default:
					return
				}
			}
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.KeyValueExpr:
					if id, ok := n.Key.(*ast.Ident); ok {
						if v, ok := tm.info.Uses[id].(*types.Var); ok && v.IsField() {
							mark(v)
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						write(lhs)
					}
				case *ast.IncDecStmt:
					write(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						write(n.X)
					}
				}
				return true
			})
		}
	}
	return w
}

// outside reports whether a package other than pkg and other than f's
// own writes field f: a library defaulting or presetting an option it
// declares or re-exports is not a caller choosing a value.
func (w writers) outside(f types.Object, pkg string) bool {
	for p := range w[f] {
		if p != pkg && p != f.Pkg().Path() {
			return true
		}
	}
	return false
}

// uncalledKnobs returns how many knobs package root's Config reaches and
// the ones no package but root and the field's own writes, keyed
// "Type.Field" by the name root gives the type. The knobs are Config's
// exported fields and, recursively, those of the struct types they name,
// through pointers and aliases.
func uncalledKnobs(tm *typedModule, w writers, root string) (int, map[string]token.Position, error) {
	pkg, err := tm.imp.Import(root)
	if err != nil {
		return 0, nil, err
	}
	cfg, ok := pkg.Scope().Lookup("Config").(*types.TypeName)
	if !ok {
		return 0, nil, fmt.Errorf("%s declares no type Config", root)
	}
	names := map[types.Type]string{}
	for _, n := range pkg.Scope().Names() {
		if tn, ok := pkg.Scope().Lookup(n).(*types.TypeName); ok {
			if t := types.Unalias(tn.Type()); names[t] == "" {
				names[t] = tn.Name()
			}
		}
	}
	knobs := map[*types.Var]string{}
	var walk func(t types.Type)
	walk = func(t types.Type) {
		t = types.Unalias(t)
		if p, ok := t.(*types.Pointer); ok {
			walk(p.Elem())
			return
		}
		named, ok := t.(*types.Named)
		if !ok {
			return
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			return
		}
		name := names[named]
		if name == "" {
			name = named.Obj().Name()
		}
		for i := 0; i < st.NumFields(); i++ {
			if f := st.Field(i); f.Exported() && knobs[f] == "" {
				knobs[f] = name + "." + f.Name()
				walk(f.Type())
			}
		}
	}
	walk(cfg.Type())

	uncalled := map[string]token.Position{}
	for f, key := range knobs {
		if !w.outside(f, root) {
			uncalled[key] = tm.fset.Position(f.Pos())
		}
	}
	return len(knobs), uncalled, nil
}

// uncalledOptions returns how many exported fields the struct types named
// *Config or *Options of the packages under prefix declare, and the ones
// no package but their own writes, keyed "pkg.Type.Field" by the
// declaring package's name.
func uncalledOptions(tm *typedModule, w writers, prefix string) (int, map[string]token.Position, error) {
	n, uncalled := 0, map[string]token.Position{}
	for _, p := range tm.pkgs {
		if p.user || !strings.HasPrefix(p.path, prefix) {
			continue
		}
		pkg, err := tm.imp.Import(p.path)
		if err != nil {
			return 0, nil, err
		}
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || !(strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options")) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if !f.Exported() {
					continue
				}
				n++
				if !w.outside(f, p.path) {
					uncalled[pkg.Name()+"."+name+"."+f.Name()] = tm.fset.Position(f.Pos())
				}
			}
		}
	}
	return n, uncalled, nil
}

// nilCheckedRequired returns the func-typed fields of the package-level
// struct types of the non-user packages of tm that are required in fact
// but optional in the code: every composite literal of the struct, in
// any package, sets the field to something other than nil, and some code
// still compares the field with nil. Such a test is a branch no
// construction can take. A comparison in the condition of an if whose
// body ends in panic is a constructor refusing a missing argument, not
// such a branch, and does not count. A struct no literal builds is not
// judged. Fields are keyed "pkg.Type.Field".
func nilCheckedRequired(tm *typedModule) (map[string]token.Position, error) {
	type tally struct {
		key        string
		lits, sets int
		compared   bool
	}
	fields := map[*types.Var]*tally{}
	for _, p := range tm.pkgs {
		if p.user {
			continue
		}
		pkg, err := tm.imp.Import(p.path)
		if err != nil {
			return nil, err
		}
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if fv := st.Field(i); isFunc(fv.Type()) {
					fields[fv] = &tally{key: pkg.Name() + "." + name + "." + fv.Name()}
				}
			}
		}
	}
	isNil := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return false
		}
		_, ok = tm.info.Uses[id].(*types.Nil)
		return ok
	}
	field := func(e ast.Expr) *tally {
		sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
		if !ok {
			return nil
		}
		if s := tm.info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
			return fields[s.Obj().(*types.Var).Origin()]
		}
		return nil
	}
	panics := func(body *ast.BlockStmt) bool {
		if len(body.List) == 0 {
			return false
		}
		es, ok := body.List[len(body.List)-1].(*ast.ExprStmt)
		if !ok {
			return false
		}
		call, ok := es.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := call.Fun.(*ast.Ident)
		if !ok {
			return false
		}
		_, ok = tm.info.Uses[id].(*types.Builtin)
		return ok && id.Name == "panic"
	}
	for _, p := range tm.pkgs {
		for _, f := range p.files {
			refusals := map[ast.Node]bool{} // comparisons guarding a panic
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.IfStmt:
					if panics(n.Body) {
						ast.Inspect(n.Cond, func(c ast.Node) bool {
							refusals[c] = true
							return true
						})
					}
				case *ast.CompositeLit:
					st, ok := types.Unalias(tm.info.Types[n].Type).Underlying().(*types.Struct)
					if !ok {
						return true
					}
					set := map[*types.Var]bool{}
					for i, e := range n.Elts {
						fv, val := (*types.Var)(nil), e
						if kv, ok := e.(*ast.KeyValueExpr); ok {
							fv, val = tm.info.Uses[kv.Key.(*ast.Ident)].(*types.Var), kv.Value
						} else {
							fv = st.Field(i)
						}
						if !isNil(val) {
							set[fv.Origin()] = true
						}
					}
					for i := 0; i < st.NumFields(); i++ {
						if fv := st.Field(i).Origin(); fields[fv] != nil {
							fields[fv].lits++
							if set[fv] {
								fields[fv].sets++
							}
						}
					}
				case *ast.BinaryExpr:
					if (n.Op != token.EQL && n.Op != token.NEQ) || refusals[n] {
						return true
					}
					for _, pair := range [2][2]ast.Expr{{n.X, n.Y}, {n.Y, n.X}} {
						if t := field(pair[0]); t != nil && isNil(pair[1]) {
							t.compared = true
						}
					}
				}
				return true
			})
		}
	}
	found := map[string]token.Position{}
	for fv, t := range fields {
		if t.compared && t.lits > 0 && t.sets == t.lits {
			found[t.key] = tm.fset.Position(fv.Pos())
		}
	}
	return found, nil
}

// isFunc reports whether t is a func type, named or not.
func isFunc(t types.Type) bool {
	_, ok := t.Underlying().(*types.Signature)
	return ok
}

// sortedKeys returns the keys of m in order.
func sortedKeys(m map[string]token.Position) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// checkKept fails for every key of found that kept does not list, with
// the hint fix, and for every key of kept that found no longer holds.
func checkKept(t *testing.T, found map[string]token.Position, kept map[string]string, keptName, fix string) {
	t.Helper()
	var keys []string
	for k := range found {
		if _, ok := kept[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		t.Errorf("%s: %s %s or add it to %s with a reason", found[k], k, fix, keptName)
	}
	keys = keys[:0]
	for k := range kept {
		if _, ok := found[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		t.Errorf("%s names %s, which the guard no longer finds; drop it", keptName, k)
	}
}

// TestNoUnreferencedDeclarations fails for any package-level func,
// method, type, var or const declared in non-test code outside bench/,
// cmd/, examples/ and testdata/ that no non-test code uses, by the rule
// of unusedDecls.
func TestNoUnreferencedDeclarations(t *testing.T) {
	tm, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	unused, err := unusedDecls(tm)
	if err != nil {
		t.Fatal(err)
	}
	checkKept(t, unused, keptUnreferenced, "keptUnreferenced", "is used by no non-test code; delete it")
}

// TestEveryConfigKnobHasACaller fails for any knob reachable from
// hostsim.Config that no non-test code outside the hostsim package and
// the knob's declaring package sets, by the rule of uncalledKnobs, and for any exported field of an internal
// *Config or *Options struct that no non-test code outside its own
// package sets, by the rule of uncalledOptions.
func TestEveryConfigKnobHasACaller(t *testing.T) {
	tm, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	w := fieldWriters(tm)
	n, uncalled, err := uncalledKnobs(tm, w, "hostsim")
	if err != nil {
		t.Fatal(err)
	}
	m, internal, err := uncalledOptions(tm, w, "hostsim/internal/")
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("Config reaches %d knobs; internal Config and Options structs declare %d", n, m)
	maps.Copy(uncalled, internal)
	checkKept(t, uncalled, keptKnobs, "keptKnobs", "is set by no program; make it the constant every run uses")
}

// TestNoNilCheckedRequiredHooks fails for any func-typed struct field that
// every literal of its struct sets but that non-test code still compares
// with nil, by the rule of nilCheckedRequired: make the constructor
// refuse nil and drop the test, or leave the field unset somewhere.
func TestNoNilCheckedRequiredHooks(t *testing.T) {
	tm, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	found, err := nilCheckedRequired(tm)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range sortedKeys(found) {
		t.Errorf("%s: %s is set by every literal but compared with nil; require it and drop the nil test", found[k], k)
	}
}

// TestUnusedDeclsRule runs the classifier on a small module held in
// source strings. A dead method that shares its name with a live one
// must be flagged; a method reached only through embedding and an
// interface call must not. A method named like a standard interface's is
// kept only when its type implements that interface: Sorted's Len is
// kept as part of sort.Interface and Label's String as fmt.Stringer, but
// Ring's Len implements nothing and is flagged.
func TestUnusedDeclsRule(t *testing.T) {
	sources := map[string]string{
		"p": `package p
type resetter interface{ reset() }
type base struct{}
func (base) reset() {}
type outer struct{ base }
func Reset(r resetter) { r.reset() }
func New() resetter { return outer{} }
type Live struct{}
func (Live) Name() string { return "live" }
type Dead struct{}
func (Dead) Name() string { return "dead" }
func Names(d Dead) string { return Live{}.Name() }
type Sorted []int
func (s Sorted) Len() int           { return len(s) }
func (s Sorted) Less(i, j int) bool { return s[i] < s[j] }
func (s Sorted) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }
type Label int
func (Label) String() string { return "label" }
type Ring struct{ buf []int }
func (r *Ring) Len() int { return len(r.buf) }
`,
		"cmd": `package main
import "p"
func main() { p.Reset(p.New()); _ = p.Names(p.Dead{}); _, _, _ = p.Sorted{}, p.Label(0), p.Ring{} }
`,
	}
	fset := token.NewFileSet()
	var pkgs []*srcPackage
	for _, path := range []string{"p", "cmd"} {
		f, err := parser.ParseFile(fset, path+".go", sources[path], 0)
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, &srcPackage{path: path, key: path, files: []*ast.File{f}, user: path == "cmd"})
	}
	tm, err := typeCheck(fset, pkgs, importer.Default())
	if err != nil {
		t.Fatal(err)
	}
	unused, err := unusedDecls(tm)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for k := range unused {
		got = append(got, k)
	}
	sort.Strings(got)
	if want := []string{"p.Dead.Name", "p.Ring.Len"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("unused = %v, want %v", got, want)
	}
}

// TestUncalledKnobsRule runs uncalledKnobs and uncalledOptions on a small
// module held in source strings. A main package sets knobs through a
// literal key, an assignment, an increment through a pointer field and
// &c.Addr; p's own write does not count, unexported fields are no knobs,
// and the field of a struct reached through an alias is named by the
// alias. A write from the package that declares the aliased struct does
// not count either: q's preset sets Stack.Preset and nothing else does,
// so it is flagged, while the main package's Stack.Chosen is not. Under
// internal/, r's option structs count: a field that only r writes (Own)
// or nobody writes (Never) is flagged, while one that p, a library
// package, writes (Other) or the main package writes (Lit) is not; Plain
// is no option struct, and its field is never counted.
func TestUncalledKnobsRule(t *testing.T) {
	sources := map[string]string{
		"q": `package q
type Options struct{ Classes int }
type Stack struct{ Preset, Chosen int }
func Default() Stack { return Stack{Preset: 1} }
`,
		"internal/r": `package r
type Config struct{ Own, Other, Lit, hidden int }
type Options struct{ Never int }
type Plain struct{ Field int }
func Default() Config { c := Config{Own: 1}; c.hidden = 2; return c }
`,
		"p": `package p
import ("internal/r"; "q")
type Config struct {
	Lit, Assign, Addr, Own, Never int
	Inner *Inner
	Alias *Opts
	Stack Stack
	hidden int
}
type Inner struct{ Set, Unset int }
type Opts = q.Options
type Stack = q.Stack
func (c *Config) defaults() { c.Own, c.hidden = 1, 2 }
func Build() r.Config { c := r.Default(); c.Other = 3; return c }
`,
		"cmd": `package main
import ("flag"; "internal/r"; "p"; "q")
func main() {
	c := p.Config{Lit: 1, Inner: &p.Inner{}, Stack: q.Default()}
	c.Stack.Chosen = 2
	c.Assign = 2
	flag.IntVar(&c.Addr, "addr", 0, "")
	c.Inner.Set++
	c.Alias = &p.Opts{}
	_, _, _ = p.Build(), r.Config{Lit: 4}, r.Plain{}
}
`,
	}
	fset := token.NewFileSet()
	var pkgs []*srcPackage
	for _, path := range []string{"q", "internal/r", "p", "cmd"} {
		f, err := parser.ParseFile(fset, path+".go", sources[path], 0)
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, &srcPackage{path: path, key: path, files: []*ast.File{f}, user: path == "cmd"})
	}
	tm, err := typeCheck(fset, pkgs, importer.Default())
	if err != nil {
		t.Fatal(err)
	}
	w := fieldWriters(tm)
	for _, c := range []struct {
		name string
		scan func() (int, map[string]token.Position, error)
		n    int
		want []string
	}{
		{"uncalledKnobs", func() (int, map[string]token.Position, error) { return uncalledKnobs(tm, w, "p") },
			13, []string{"Config.Never", "Config.Own", "Inner.Unset", "Opts.Classes", "Stack.Preset"}},
		{"uncalledOptions", func() (int, map[string]token.Position, error) { return uncalledOptions(tm, w, "internal/") },
			4, []string{"r.Config.Own", "r.Options.Never"}},
	} {
		n, uncalled, err := c.scan()
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for k := range uncalled {
			got = append(got, k)
		}
		sort.Strings(got)
		if n != c.n || fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("%s = %d knobs, uncalled %v; want %d, %v", c.name, n, got, c.n, c.want)
		}
	}
}

// TestNilCheckedHooksRule runs nilCheckedRequired on a small module held
// in source strings. Hooks.A, set by an unkeyed literal in p and a keyed
// one in the main package and compared with nil, is flagged. Hooks.B is
// set as often, but its only nil test is New refusing it with a panic,
// so it passes. Opts.Must, set by every literal, two of them in a
// type-elided slice, is flagged; Opts.May, which a literal leaves unset,
// is an optional hook and passes, as does Pair.Y, which an unkeyed
// literal sets to nil. Lone.F is compared but built by no literal, so it
// is not judged, and the main package's own struct is not checked. The
// module is self-contained, so the rule stays pinned whatever shape the
// live hooks take (tcp.Hooks is an interface, which the rule does not
// judge).
func TestNilCheckedHooksRule(t *testing.T) {
	sources := map[string]string{
		"p": `package p
type Hooks struct{ A, B func() }
type Opts struct {
	Must, May func(int)
	N         int
}
type Pair struct{ X, Y func() }
type Lone struct{ F func() }
func noop()     {}
func noop1(int) {}
func New(h Hooks) Hooks {
	if h.B == nil {
		panic("p: nil B")
	}
	return h
}
func Make() (Hooks, []Opts, Pair) {
	return New(Hooks{noop, noop}), []Opts{{Must: noop1, May: noop1}, {Must: noop1, N: 1}}, Pair{noop, nil}
}
func Run(h Hooks, o Opts, pr Pair, l *Lone) {
	if h.A != nil {
		h.A()
	}
	h.B()
	if nil != o.Must && (o.May == nil) {
		o.Must(o.N)
	}
	if pr.Y != nil {
		pr.Y()
	}
	if l.F != nil {
		l.F()
	}
}
`,
		"cmd": `package main
import "p"
type local struct{ G func() }
func main() {
	l := local{G: func() {}}
	if l.G != nil {
		p.Run(p.New(p.Hooks{A: l.G, B: l.G}), p.Opts{Must: func(int) {}}, p.Pair{X: l.G}, nil)
	}
	_, _, _ = p.Make()
}
`,
	}
	fset := token.NewFileSet()
	var pkgs []*srcPackage
	for _, path := range []string{"p", "cmd"} {
		f, err := parser.ParseFile(fset, path+".go", sources[path], 0)
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, &srcPackage{path: path, key: path, files: []*ast.File{f}, user: path == "cmd"})
	}
	tm, err := typeCheck(fset, pkgs, importer.Default())
	if err != nil {
		t.Fatal(err)
	}
	found, err := nilCheckedRequired(tm)
	if err != nil {
		t.Fatal(err)
	}
	got := sortedKeys(found)
	if want := []string{"p.Hooks.A", "p.Opts.Must"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("nil-checked required hooks = %v, want %v", got, want)
	}
}

// recvName returns a method receiver's base type name.
func recvName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvName(e.X)
	case *ast.IndexExpr:
		return recvName(e.X)
	case *ast.IndexListExpr:
		return recvName(e.X)
	case *ast.Ident:
		return e.Name
	}
	return ""
}
