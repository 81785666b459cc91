package analysis_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"csspgo/internal/obs"
)

// Metric and event names are checked where they enter, not by this linter:
// obs.Registry panics on the first registration of a kind-conflicting,
// malformed or uncataloged reserved name, and obs.Journal.Emit on an
// uncataloged event type. These tests drive those checks from outside obs
// with the linter's former cases, and walk the declared catalog constants
// in obs's source, so a constant left out of its catalog set fails here.
// Only test code imports obs; the layering test holds the package itself
// to that.

// panicMessage runs fn and returns what it panicked with, or "" if it
// returned normally.
func panicMessage(fn func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	fn()
	return ""
}

// mustPanicNaming fails t unless fn panics with a message quoting name.
func mustPanicNaming(t *testing.T, name string, fn func()) {
	t.Helper()
	if msg := panicMessage(fn); !strings.Contains(msg, strconv.Quote(name)) {
		t.Errorf("%q: panic %q, want one naming it", name, msg)
	}
}

// mustNotPanic fails t if fn panics.
func mustNotPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	if msg := panicMessage(fn); msg != "" {
		t.Errorf("%s: panicked: %s", what, msg)
	}
}

// obsConstants returns the identifiers and values of the string constants
// declared in internal/obs's non-test source that keep accepts, in
// declaration order.
func obsConstants(t *testing.T, keep func(ident string, spec *ast.ValueSpec) bool) (idents, values []string) {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("..", "obs", "*.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("obs sources: %v (%d files)", err, len(files))
	}
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			gen, ok := decl.(*ast.GenDecl)
			if !ok || gen.Tok != token.CONST {
				continue
			}
			for _, s := range gen.Specs {
				spec := s.(*ast.ValueSpec)
				for i, id := range spec.Names {
					if i >= len(spec.Values) || !keep(id.Name, spec) {
						continue
					}
					lit, ok := spec.Values[i].(*ast.BasicLit)
					if !ok || lit.Kind != token.STRING {
						continue
					}
					v, err := strconv.Unquote(lit.Value)
					if err != nil {
						t.Fatal(err)
					}
					idents = append(idents, id.Name)
					values = append(values, v)
				}
			}
		}
	}
	return idents, values
}

var metricConstRE = regexp.MustCompile(`^[mM][A-Z]`)

// metricConstants are obs's declared metric names (the M* constants).
func metricConstants(t *testing.T) (idents, names []string) {
	return obsConstants(t, func(ident string, spec *ast.ValueSpec) bool {
		return spec.Type == nil && metricConstRE.MatchString(ident)
	})
}

// eventConstants are obs's declared event types (the EventType constants).
func eventConstants(t *testing.T) (idents, names []string) {
	return obsConstants(t, func(_ string, spec *ast.ValueSpec) bool {
		typ, ok := spec.Type.(*ast.Ident)
		return ok && typ.Name == "EventType"
	})
}

// The shipped metric catalog is duplicate-free and convention-clean: every
// declared metric constant registers on one registry, each under its own
// name, and a reserved-namespace one only if it is in the catalog set.
func TestMetricCatalogClean(t *testing.T) {
	idents, names := metricConstants(t)
	if len(names) < 50 {
		t.Fatalf("found %d metric constants in obs; the source walk is broken", len(names))
	}
	reg := obs.NewRegistry()
	seen := map[string]string{}
	for i, name := range names {
		if prev, dup := seen[name]; dup {
			t.Errorf("%s and %s both declare metric %q", prev, idents[i], name)
			continue
		}
		seen[name] = idents[i]
		mustNotPanic(t, idents[i], func() { reg.Counter(name) })
	}
}

func TestCheckMetricNames(t *testing.T) {
	mustPanicNaming(t, "Bad.Name", func() { obs.NewRegistry().Counter("Bad.Name") })
	// A repeat registration under the same kind is the same metric, not a
	// duplicate: it returns the first handle.
	mustNotPanic(t, "a.b twice, ok.metric_name", func() {
		reg := obs.NewRegistry()
		reg.Counter("a.b").Add(1)
		reg.Counter("a.b").Add(2)
		reg.Counter("ok.metric_name").Add(1)
		if got := reg.Counter("a.b").Value(); got != 3 {
			t.Errorf("a.b = %d after two registrations, want 3", got)
		}
	})
}

func TestCheckMetricRegistryFlagsKindConflict(t *testing.T) {
	mustPanicNaming(t, "a.b", func() {
		reg := obs.NewRegistry()
		reg.Counter("a.b").Add(1)
		reg.Gauge("a.b").Set(2) // same name, different kind
	})
	mustNotPanic(t, "clean registry", func() {
		reg := obs.NewRegistry()
		reg.Counter("a.b").Add(1)
	})
}

func TestCheckMetricRegistryFlagsUncatalogedServeMetric(t *testing.T) {
	mustPanicNaming(t, "serve.rogue_counter", func() { obs.NewRegistry().Counter("serve.rogue_counter").Add(1) })
}

func TestCheckMetricsCataloged(t *testing.T) {
	_, names := metricConstants(t)
	mustNotPanic(t, "every catalog name", func() {
		reg := obs.NewRegistry()
		for _, name := range names {
			reg.Gauge(name)
		}
	})
	mustPanicNaming(t, "serve.rogue_counter", func() { obs.NewRegistry().Counter("serve.rogue_counter") })
	// Outside the reserved namespaces a well-formed name extends the
	// namespace at run time.
	mustNotPanic(t, "app.custom", func() { obs.NewRegistry().Counter("app.custom") })
}

// The overhead.* namespace is reserved: an overhead-prefixed metric
// outside the catalog is refused, exactly like serve.* and fleet.*.
func TestCheckMetricsCatalogedReservesOverhead(t *testing.T) {
	mustPanicNaming(t, "overhead.rogue_gauge", func() { obs.NewRegistry().Gauge("overhead.rogue_gauge") })
	mustNotPanic(t, obs.MOverheadPct, func() { obs.NewRegistry().Gauge(obs.MOverheadPct).Set(1) })
}

// The shipped event catalog is duplicate-free and convention-clean: every
// declared event type is lowercase snake case, declared once, and emits.
func TestEventCatalogClean(t *testing.T) {
	idents, names := eventConstants(t)
	if len(names) < 5 {
		t.Fatalf("found %d event constants in obs; the source walk is broken", len(names))
	}
	snake := regexp.MustCompile(`^[a-z][a-z0-9_]*$`)
	j := obs.NewJournal()
	seen := map[string]string{}
	for i, name := range names {
		if prev, dup := seen[name]; dup {
			t.Errorf("%s and %s both declare event type %q", prev, idents[i], name)
			continue
		}
		seen[name] = idents[i]
		if !snake.MatchString(name) {
			t.Errorf("%s: event type %q is not lowercase snake case", idents[i], name)
		}
		mustNotPanic(t, idents[i], func() { j.Emit(obs.Event{Type: obs.EventType(name)}) })
	}
}

func TestCheckEventNames(t *testing.T) {
	// Emitting a cataloged type twice is two events, not a duplicate.
	mustNotPanic(t, "promotion twice", func() {
		j := obs.NewJournal()
		j.Emit(obs.Event{Type: "promotion"})
		j.Emit(obs.Event{Type: "promotion"})
	})
	// "BadName" is malformed and uncataloged; "made_up_event" is
	// well-formed but uncataloged.
	for _, name := range []string{"BadName", "made_up_event"} {
		mustPanicNaming(t, name, func() { obs.NewJournal().Emit(obs.Event{Type: obs.EventType(name)}) })
	}
}

// The observatory's event types are cataloged; a lookalike is not.
func TestCheckEventNamesKnowsOverheadEvents(t *testing.T) {
	mustNotPanic(t, "observatory events", func() {
		j := obs.NewJournal()
		j.Emit(obs.Event{Type: "overhead_budget_breach"})
		j.Emit(obs.Event{Type: "confidence_low"})
	})
	mustPanicNaming(t, "overhead_budget_breached", func() {
		obs.NewJournal().Emit(obs.Event{Type: "overhead_budget_breached"})
	})
}
