package obs

import (
	"fmt"
	"strings"
	"testing"
)

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

// The catalogs check a name where it enters: Registry on the first
// registration of a metric, Journal on every Emit. Each rejection panics
// with a message naming what was refused; everything cataloged, and every
// well-formed name outside the reserved namespaces, is accepted.
func TestCatalogsCheckNamesOnEntry(t *testing.T) {
	register := map[Kind]func(*Registry, string){
		kindCounter:   func(r *Registry, n string) { r.Counter(n) },
		kindGauge:     func(r *Registry, n string) { r.Gauge(n) },
		kindHistogram: func(r *Registry, n string) { r.Histogram(n) },
	}
	type entry struct {
		name  string
		fn    func()
		panic string // substring of the panic message; "" = must not panic
	}
	var cases []entry
	for _, first := range []Kind{kindCounter, kindGauge, kindHistogram} {
		for _, second := range []Kind{kindCounter, kindGauge, kindHistogram} {
			if first == second {
				continue
			}
			cases = append(cases, entry{
				name: fmt.Sprintf("%s then %s", first, second),
				fn: func() {
					r := NewRegistry()
					register[first](r, "a.b")
					register[second](r, "a.b")
				},
				panic: `"a.b"`,
			})
		}
	}
	for _, prefix := range reservedPrefixes {
		name := prefix + "rogue"
		cases = append(cases, entry{
			name:  "uncataloged " + name,
			fn:    func() { NewRegistry().Counter(name) },
			panic: fmt.Sprintf("%q", name),
		})
	}
	for _, name := range []string{"", "a", "A.b", "a..b", "a.b-c", "serve"} {
		cases = append(cases, entry{
			name:  fmt.Sprintf("malformed %q", name),
			fn:    func() { NewRegistry().Gauge(name) },
			panic: fmt.Sprintf("%q", name),
		})
	}
	cases = append(cases, entry{
		name: "every catalog name",
		fn: func() {
			r := NewRegistry()
			for _, name := range catalogNames() {
				r.Counter(name)
			}
		},
	}, entry{
		name: "dynamic experiment gauge",
		fn:   func() { NewRegistry().Gauge("experiment.fig6.x").Set(1) },
	}, entry{
		name: "nil registry",
		fn: func() {
			var r *Registry
			r.Counter("serve.rogue").Add(1)
			r.Gauge("Bad Name").Set(1)
			r.Histogram("").Observe(1)
		},
	}, entry{
		name:  "uncataloged event",
		fn:    func() { NewJournal().Emit(Event{Type: EventType("rogue")}) },
		panic: `"rogue"`,
	}, entry{
		name: "every cataloged event",
		fn: func() {
			j := NewJournal()
			for et := range eventCatalog {
				j.Emit(Event{Type: et})
			}
		},
	})

	for _, c := range cases {
		msg := panicMessage(c.fn)
		switch {
		case c.panic == "" && msg != "":
			t.Errorf("%s: panicked: %s", c.name, msg)
		case c.panic != "" && !strings.Contains(msg, c.panic):
			t.Errorf("%s: panic %q, want one naming %s", c.name, msg, c.panic)
		}
	}
}
