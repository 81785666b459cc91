package analysis_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// Exported means used: an exported top-level identifier or method in
// internal/... needs a caller that is not a test, outside its own package.
// Everything else is deleted or unexported, so the packages' API is the one
// their callers use. The rule reads source only (go/parser, no type
// checker), so it is conservative where names alone cannot tell:
//
//   - a package-level name is referenced only as pkg.Name through an
//     import of its package;
//   - a method is used when a selector with its name appears in another
//     package, or when an interface declares its name (any interface in the
//     module, or one of the stdlib names in stdlibInterfaceMethods);
//   - a type is used when a used exported signature, type, var or const
//     mentions it (a constructor's result, a field of a used struct).
//
// Callers in bench/, cmd/, examples/ and the root facade count. _test.go
// files never do. internal/surfacetest is test code in all but name (only
// tests import it), so its declarations are not checked and its
// references do not count.

// Allowlist categories: every entry names one.
const (
	schemaReadSide = "read side of a schema contract"
	testHandle     = "how a test reads a handle it was given"
	testHook       = "hook that other packages' tests need"
)

// exportAllowlist holds exported identifiers with no caller outside their
// package that stay exported anyway; the value is the entry's category.
var exportAllowlist = map[string]string{
	"obs.DecodeReport":         schemaReadSide,
	"obs.DecodeJournal":        schemaReadSide,
	"obs.Schema":               schemaReadSide,
	"obs.EventsSchema":         schemaReadSide,
	"obs.TimeSeriesSchema":     schemaReadSide,
	"overhead.Decode":          schemaReadSide,
	"overhead.Schema":          schemaReadSide,
	"obs.SpanContext.Valid":    testHandle,
	"probe.Index":              testHandle, // what probe.BuildIndex hands the tests
	"profdata.NewContext":      testHook,   // contexts built by hand in quality, drift, introspect, preinline, analysis tests
	"ir.CloneFunction":         testHook,   // opt's reference tests run both versions of a pass on clones
	"workloads.AllNames":       testHook,   // the whole corpus, walked by the golden and reference tests
	"workloads.Generate":       testHook,   // seeded programs for opt's generated-program tests (semantic preservation, fixed points, DCE/LICM and profiled-pass references, compaction, FuzzTranslationValidate)
	"ir.Function.NaturalLoops": testHook,   // loops without a scratch, for opt's reference LICM and the irgen tests
	"inference.InferProgram":   testHook,   // inference without a workspace, for the root package's BenchmarkInference
	"probe.BuildIndex":         testHook,   // opt's reference annotation and the stale and opt tests read probes by ID
}

// stdlibInterfaceMethods are method names that standard-library interfaces
// call through (fmt.Stringer, error, http.Handler, json.Marshaler,
// http.ResponseWriter, io.Writer).
var stdlibInterfaceMethods = map[string]bool{
	"String": true, "Error": true, "ServeHTTP": true, "MarshalJSON": true,
	"Header": true, "Write": true, "WriteHeader": true,
}

// srcFile is one Go file of the module: its slash path from the module
// root and its contents.
type srcFile struct {
	path string
	src  string
}

// exportReport is the rule's verdict over one module.
type exportReport struct {
	checked     int
	allowlisted int
	flagged     []string // pkg.Name or pkg.Recv.Method, pkg relative to internal/
	badAllow    []string // allowlist entries without a category, or not needed
}

// exportedDecl is one checked identifier.
type exportedDecl struct {
	key      string     // pkg.Name or pkg.Recv.Method
	dir      string     // package directory, from the module root
	name     string     // the identifier (the method name for a method)
	method   bool       // a method, not a package-level name
	mentions []ast.Node // what a use of it keeps: signature, type, var/const type and values
}

// checkExportedMeansUsed applies the rule to files, the whole module
// (module is its path from go.mod), with allow as the allowlist.
func checkExportedMeansUsed(module string, files []srcFile, allow map[string]string) (exportReport, error) {
	fset := token.NewFileSet()
	var decls []*exportedDecl
	types := map[string]map[string]*exportedDecl{} // dir -> type name -> decl
	pkgRefs := map[string]map[string]bool{}        // dir -> names referenced as pkg.Name from elsewhere
	selDirs := map[string]map[string]bool{}        // selector name -> dirs that use it (not as pkg.Name)
	ifaceMethods := map[string]bool{}
	for name := range stdlibInterfaceMethods {
		ifaceMethods[name] = true
	}
	for _, sf := range files {
		if strings.HasSuffix(sf.path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, sf.path, sf.src, 0)
		if err != nil {
			return exportReport{}, err
		}
		dir := path.Dir(sf.path)
		if dir == "internal/surfacetest" || strings.HasPrefix(dir, "internal/surfacetest/") {
			continue
		}
		if strings.HasPrefix(dir, "internal/") {
			decls = append(decls, exportedDecls(f, dir, types)...)
		}
		imports := map[string]string{} // local name -> package dir
		for _, imp := range f.Imports {
			p := strings.Trim(imp.Path.Value, `"`)
			if p != module && !strings.HasPrefix(p, module+"/") {
				continue
			}
			d := strings.TrimPrefix(strings.TrimPrefix(p, module), "/")
			if d == "" {
				d = "."
			}
			local := path.Base(p)
			if imp.Name != nil {
				local = imp.Name.Name
			}
			imports[local] = d
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				// An unresolved identifier named like an import is the
				// package; anything else is a value, so Sel is a field or
				// method.
				if x, ok := n.X.(*ast.Ident); ok && x.Obj == nil {
					if d, ok := imports[x.Name]; ok {
						if pkgRefs[d] == nil {
							pkgRefs[d] = map[string]bool{}
						}
						pkgRefs[d][n.Sel.Name] = true
						return true
					}
				}
				if selDirs[n.Sel.Name] == nil {
					selDirs[n.Sel.Name] = map[string]bool{}
				}
				selDirs[n.Sel.Name][dir] = true
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					for _, name := range m.Names {
						ifaceMethods[name.Name] = true
					}
				}
			}
			return true
		})
	}

	used := map[*exportedDecl]bool{}
	var work []*exportedDecl
	mark := func(d *exportedDecl) {
		if !used[d] {
			used[d] = true
			work = append(work, d)
		}
	}
	for _, d := range decls {
		if d.method {
			if ifaceMethods[d.name] {
				mark(d)
				continue
			}
			for dir := range selDirs[d.name] {
				if dir != d.dir {
					mark(d)
					break
				}
			}
		} else if pkgRefs[d.dir][d.name] {
			mark(d)
		}
	}
	// A used declaration keeps the exported types of its package that it
	// mentions, and they keep what they mention.
	for len(work) > 0 {
		d := work[len(work)-1]
		work = work[:len(work)-1]
		for _, n := range d.mentions {
			forEachLocalIdent(n, func(name string) {
				if t := types[d.dir][name]; t != nil {
					mark(t)
				}
			})
		}
	}

	rep := exportReport{checked: len(decls)}
	needed := map[string]bool{}
	for _, d := range decls {
		if used[d] {
			continue
		}
		if _, ok := allow[d.key]; ok {
			needed[d.key] = true
			rep.allowlisted++
			continue
		}
		rep.flagged = append(rep.flagged, d.key)
	}
	for key, category := range allow {
		switch {
		case strings.TrimSpace(category) == "":
			rep.badAllow = append(rep.badAllow, key+": no category comment")
		case !needed[key]:
			rep.badAllow = append(rep.badAllow, key+": not needed (used, or not an exported identifier)")
		}
	}
	sort.Strings(rep.flagged)
	sort.Strings(rep.badAllow)
	return rep, nil
}

// exportedDecls returns f's exported top-level identifiers and methods,
// recording its exported types in types.
func exportedDecls(f *ast.File, dir string, types map[string]map[string]*exportedDecl) []*exportedDecl {
	pkg := strings.TrimPrefix(dir, "internal/")
	var out []*exportedDecl
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			if !decl.Name.IsExported() {
				continue
			}
			d := &exportedDecl{key: pkg + "." + decl.Name.Name, dir: dir, name: decl.Name.Name, mentions: []ast.Node{decl.Type}}
			if decl.Recv != nil {
				d.method = true
				d.key = pkg + "." + receiverName(decl.Recv.List[0].Type) + "." + decl.Name.Name
			}
			out = append(out, d)
		case *ast.GenDecl:
			var lastType ast.Expr // a const spec without a type repeats the previous one
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					if !spec.Name.IsExported() {
						continue
					}
					d := &exportedDecl{key: pkg + "." + spec.Name.Name, dir: dir, name: spec.Name.Name, mentions: []ast.Node{exportedView(spec.Type)}}
					if types[dir] == nil {
						types[dir] = map[string]*exportedDecl{}
					}
					types[dir][spec.Name.Name] = d
					out = append(out, d)
				case *ast.ValueSpec:
					if spec.Type != nil || len(spec.Values) > 0 {
						lastType = spec.Type
					}
					mentions := []ast.Node{lastType}
					for _, v := range spec.Values {
						mentions = append(mentions, v)
					}
					for _, name := range spec.Names {
						if name.IsExported() {
							out = append(out, &exportedDecl{key: pkg + "." + name.Name, dir: dir, name: name.Name, mentions: mentions})
						}
					}
				}
			}
		}
	}
	return out
}

// receiverName is the type name of a method receiver (T, *T, T[P]).
func receiverName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// exportedView is the part of a type definition other packages see: a
// struct's exported and embedded fields, or the whole type otherwise.
func exportedView(t ast.Expr) ast.Node {
	st, ok := t.(*ast.StructType)
	if !ok {
		return t
	}
	view := &ast.FieldList{}
	for _, field := range st.Fields.List {
		keep := len(field.Names) == 0
		for _, name := range field.Names {
			keep = keep || name.IsExported()
		}
		if keep {
			view.List = append(view.List, field)
		}
	}
	return view
}

// forEachLocalIdent calls fn for every identifier in n that is not the
// selected name of a selector (pkg.Name and x.Field name other scopes).
func forEachLocalIdent(n ast.Node, fn func(string)) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			forEachLocalIdent(n.X, fn)
			return false
		case *ast.Ident:
			fn(n.Name)
		}
		return true
	})
}

// moduleSources reads every Go file of the module rooted at root, skipping
// testdata and hidden directories the way the go tool does.
func moduleSources(t *testing.T, root string) (module string, files []srcFile) {
	t.Helper()
	gomod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(gomod), "\n") {
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			module = strings.TrimSpace(rest)
		}
	}
	err = filepath.WalkDir(root, func(p string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := e.Name()
		if e.IsDir() {
			if p != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		files = append(files, srcFile{path: filepath.ToSlash(rel), src: string(src)})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if module == "" || len(files) == 0 {
		t.Fatalf("module %q with %d Go files: the source walk is broken", module, len(files))
	}
	return module, files
}

// TestExportedMeansUsed holds every package under internal/ to the API its
// callers use.
func TestExportedMeansUsed(t *testing.T) {
	module, files := moduleSources(t, filepath.Join("..", ".."))
	rep, err := checkExportedMeansUsed(module, files, exportAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	if rep.checked < 300 {
		t.Fatalf("checked %d exported identifiers; the source walk is broken", rep.checked)
	}
	for _, key := range rep.flagged {
		t.Errorf("%s: exported, but no non-test file outside its package uses it (delete it, unexport it, or allowlist it with a category)", key)
	}
	for _, msg := range rep.badAllow {
		t.Errorf("allowlist: %s", msg)
	}
	if len(exportAllowlist) > 30 {
		t.Errorf("allowlist has %d entries; keep it short (at most 30)", len(exportAllowlist))
	}
	t.Logf("exported surface: %d identifiers checked, %d flagged, %d allowlisted", rep.checked, len(rep.flagged), rep.allowlisted)
}

// The rule over in-memory modules: what counts as a caller, and what the
// allowlist accepts.
func TestExportedMeansUsedRule(t *testing.T) {
	const lib = `package lib

type Config struct{ N int }

type Result struct{ Stats Stats }

type Stats struct{ Calls int }

type hidden struct{}

func NewConfig() Config { return Config{} }

func Run(c Config) Result { return Result{} }

func Helper() {}

func (r Result) Len() int { return 0 }

func (r Result) Describe() string { return "" }
`
	for _, tc := range []struct {
		name    string
		files   []srcFile
		allow   map[string]string
		flagged []string
		bad     int
	}{
		{
			name: "a reference from another package's _test.go does not count",
			files: []srcFile{
				{"internal/lib/lib.go", lib},
				{"internal/user/user_test.go", "package user\nimport \"m/internal/lib\"\nvar _ = lib.Helper\nvar _ = lib.NewConfig\nvar _ = lib.Run\n"},
			},
			flagged: []string{"lib.Config", "lib.NewConfig", "lib.Result", "lib.Result.Describe", "lib.Result.Len", "lib.Run", "lib.Stats", "lib.Helper"},
		},
		{
			name: "a reference from a package main outside internal/ counts",
			files: []srcFile{
				{"internal/lib/lib.go", lib},
				{"cmd/tool/main.go", "package main\nimport \"m/internal/lib\"\nfunc main() { lib.Helper(); _ = lib.Run }\n"},
			},
			// Run keeps Config (its parameter), Result (its result) and,
			// through Result's exported field, Stats.
			flagged: []string{"lib.NewConfig", "lib.Result.Describe", "lib.Result.Len"},
		},
		{
			name: "a type reached only through a used constructor's result counts",
			files: []srcFile{
				{"internal/lib/lib.go", lib},
				{"cmd/tool/main.go", "package main\nimport \"m/internal/lib\"\nfunc main() { _ = lib.NewConfig().N }\n"},
			},
			flagged: []string{"lib.Helper", "lib.Result", "lib.Result.Describe", "lib.Result.Len", "lib.Run", "lib.Stats"},
		},
		{
			name: "a method named by an interface counts; a selector in another package too",
			files: []srcFile{
				{"internal/lib/lib.go", lib},
				{"internal/other/other.go", "package other\ntype sizer interface{ Len() int }\nfunc Use(x interface{ Describe() string }) { _ = x.Describe() }\n"},
				{"cmd/tool/main.go", "package main\nimport (\"m/internal/lib\"; \"m/internal/other\")\nfunc main() { lib.Helper(); other.Use(nil) }\n"},
			},
			flagged: []string{"lib.Config", "lib.NewConfig", "lib.Result", "lib.Run", "lib.Stats"},
		},
		{
			name: "an allowlist entry without a comment fails",
			files: []srcFile{
				{"internal/lib/lib.go", "package lib\nfunc Helper() {}\nfunc Decode() {}\n"},
			},
			allow:   map[string]string{"lib.Helper": "", "lib.Decode": schemaReadSide},
			flagged: nil,
			bad:     1,
		},
		{
			name: "an allowlist entry that is used anyway fails",
			files: []srcFile{
				{"internal/lib/lib.go", "package lib\nfunc Helper() {}\n"},
				{"main.go", "package m\nimport \"m/internal/lib\"\nvar _ = lib.Helper\n"},
			},
			allow: map[string]string{"lib.Helper": testHook},
			bad:   1,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := checkExportedMeansUsed("m", tc.files, tc.allow)
			if err != nil {
				t.Fatal(err)
			}
			want := append([]string(nil), tc.flagged...)
			sort.Strings(want)
			if fmt.Sprint(rep.flagged) != fmt.Sprint(want) {
				t.Errorf("flagged %v, want %v", rep.flagged, want)
			}
			if len(rep.badAllow) != tc.bad {
				t.Errorf("allowlist findings %v, want %d", rep.badAllow, tc.bad)
			}
		})
	}
}
