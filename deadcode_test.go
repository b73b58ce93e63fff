package hostsim_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// keptUnreferenced lists the package-level declarations that no non-test
// code references but that stay on purpose, keyed by directory and
// [receiver.]name, each with the reason it is kept.
var keptUnreferenced = map[string]string{
	"hostsim.RunMany":                          "public batch API; the determinism tests drive it",
	"hostsim.WithParallelism":                  "public RunMany option; the determinism tests set it",
	"hostsim.Result.MessageRecords":            "public accessor for message-trace records",
	"internal/cache.DCA.Hazard":                "state accessor the DCA hazard tests read",
	"internal/exec.Core.BusyTime":              "state accessor the scheduler tests read",
	"internal/exec.Core.Accounting":            "state accessor the accounting tests read",
	"internal/exec.Core.SkewAccounting":        "fault hook: the checker tests inject a double charge",
	"internal/exec.Thread.Blocked":             "state accessor the scheduler tests read",
	"internal/mem.Allocator.InUse":             "state accessor the page-pool tests read",
	"internal/mem.Allocator.PagesetLen":        "state accessor the page-pool tests read",
	"internal/sim.Engine.Fired":                "events fired; the planned run manifest reads it",
	"internal/sim.Timer.When":                  "state accessor the timer tests read",
	"internal/telemetry.Sampler.Evicted":       "ring-eviction count the sampler tests read",
	"internal/fabricobs.Observer.Reconcile":    "ledger cross-check the fabricobs tests run",
	"internal/figures.CacheSize":               "memo size the figure-cache tests read",
	"internal/trace.Tracer.Dump":               "text dump the tracer tests read",
	"internal/core.Host.Written":               "bytes-written counter the core tests read",
	"internal/core.Host.Endpoints":             "endpoint count the core tests read",
	"internal/profile.Profiler.TotalCycles":    "profile total the profiler tests reconcile",
	"internal/profile.Profiler.CategoryTotals": "per-category totals the profiler tests reconcile",
	"internal/core.AllOpts":                    "stack preset the core tests build hosts with",
	"internal/core.NoOpts":                     "stack preset the core tests build hosts with",
	"internal/metrics.Histogram.RecordN":       "bulk record the histogram tests check against Record",
	"internal/metrics.Histogram.Buckets":       "bucket view the histogram tests read",
	"internal/metrics.LogLinear.Sum":           "histogram sum the mtrace tests read",
	"internal/skb.SegmentSizes":                "GSO/TSO split the skb and tcp tests check segments against",
	"internal/inspect.FlagFIN":                 "TCP flag enum member, kept with its siblings",
	"internal/inspect.FlagSYN":                 "TCP flag enum member, kept with its siblings",
	"internal/inspect.FlagRST":                 "TCP flag enum member, kept with its siblings",
	"internal/units.MHz":                       "frequency unit, kept with its siblings",
	"internal/units.GHz":                       "frequency unit, kept with its siblings",
}

// interfaceMethods are method names that satisfy a standard interface
// (fmt.Stringer, error, json.Marshaler, sort.Interface, heap.Interface,
// flag.Value) and so are called without their name appearing in the code.
var interfaceMethods = map[string]bool{
	"String": true, "Error": true, "MarshalJSON": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true, "Set": true,
}

// TestNoUnreferencedDeclarations fails for any package-level func, method,
// type, var or const declared in non-test code outside bench/ and
// testdata/ whose name no non-test file references. The match is by name,
// without type information, so it can miss dead code that shares a name
// with something live but never flags live code.
func TestNoUnreferencedDeclarations(t *testing.T) {
	type decl struct {
		key, name string
		pos       token.Position
	}
	var decls []decl
	refs := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		// Declaring identifiers are not references.
		declaring := map[*ast.Ident]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				declaring[n.Name] = true
			case *ast.TypeSpec:
				declaring[n.Name] = true
			case *ast.ValueSpec:
				for _, id := range n.Names {
					declaring[id] = true
				}
			case *ast.Field:
				for _, id := range n.Names {
					declaring[id] = true
				}
			}
			return true
		})
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declaring[id] {
				refs[id.Name] = true
			}
			return true
		})
		dir := filepath.ToSlash(filepath.Dir(path))
		if dir == "bench" || strings.HasPrefix(dir, "bench/") {
			return nil
		}
		if dir == "." {
			dir = "hostsim"
		}
		add := func(prefix string, id *ast.Ident) {
			if id.Name != "_" {
				decls = append(decls, decl{dir + "." + prefix + id.Name, id.Name, fset.Position(id.Pos())})
			}
		}
		for _, gd := range f.Decls {
			switch gd := gd.(type) {
			case *ast.FuncDecl:
				switch {
				case gd.Recv == nil && (gd.Name.Name == "main" || gd.Name.Name == "init"):
				case gd.Recv == nil:
					add("", gd.Name)
				case !interfaceMethods[gd.Name.Name]:
					add(recvName(gd.Recv.List[0].Type)+".", gd.Name)
				}
			case *ast.GenDecl:
				for _, spec := range gd.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						add("", s.Name)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							add("", id)
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, d := range decls {
		seen[d.key] = true
		_, kept := keptUnreferenced[d.key]
		if !refs[d.name] && !kept {
			t.Errorf("%s: %s is referenced by no non-test code; delete it or add it to keptUnreferenced with a reason", d.pos, d.key)
		}
		if refs[d.name] && kept {
			t.Errorf("%s: %s is referenced now; drop it from keptUnreferenced", d.pos, d.key)
		}
	}
	var stale []string
	for k := range keptUnreferenced {
		if !seen[k] {
			stale = append(stale, k)
		}
	}
	sort.Strings(stale)
	for _, k := range stale {
		t.Errorf("keptUnreferenced names %s, which is not declared", k)
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
