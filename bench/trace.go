package main

import (
	"bytes"
	"encoding/json"
	"io"
	"sort"
	"strings"
	"time"

	"csspgo/internal/obs"
)

// Rep ids of spans recorded outside the timed reps.
const (
	repSetup  = -1
	repVerify = -2
)

// span is one call the bench made into a layer. Names are
// "<layer>.<operation>", so the layer is the part before the first dot.
type span struct {
	Name    string
	Start   time.Duration
	Dur     time.Duration
	Parent  int // index into tracer.spans, -1 at the top
	Rep     int // timed-rep number, or repSetup / repVerify
	Program string
	Work    float64 // bytes or samples processed, for throughput rows
}

// tracer keeps the spans of a traced run in memory. A nil tracer records
// nothing, so the untraced run pays one nil check per call site. Spans open
// and close on the driver goroutine only; work done on other goroutines is
// added afterwards with add.
type tracer struct {
	workload string
	epoch    time.Time
	spans    []span
	stack    []int
	rep      int
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now(), rep: repSetup}
}

// now is the time on the tracer's clock; 0 without a tracer.
func (t *tracer) now() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.epoch)
}

func (t *tracer) setRep(rep int) {
	if t != nil {
		t.rep = rep
	}
}

func (t *tracer) top() int {
	if len(t.stack) == 0 {
		return -1
	}
	return t.stack[len(t.stack)-1]
}

// begin opens a span under the innermost open one and returns its id.
func (t *tracer) begin(name, program string) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: t.now(), Parent: t.top(), Rep: t.rep, Program: program})
	id := len(t.spans) - 1
	t.stack = append(t.stack, id)
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int) { t.endWork(id, 0) }

// endWork closes the span and records how much work it covered.
func (t *tracer) endWork(id int, work float64) {
	if t == nil {
		return
	}
	if t.top() != id {
		panic("bench: spans closed out of order")
	}
	t.stack = t.stack[:len(t.stack)-1]
	s := &t.spans[id]
	s.Dur = t.now() - s.Start
	s.Work = work
}

// add records a finished span measured elsewhere (a client goroutine).
func (t *tracer) add(name, program string, start, dur time.Duration, work float64) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{Name: name, Start: start, Dur: dur, Parent: t.top(), Rep: t.rep, Program: program, Work: work})
}

// importObs copies spans of an obs.Trace, started at bench time `at`, under
// the bench span parent. rename maps an obs span name to the bench's name
// for it; spans it rejects are dropped and their children move up to the
// nearest kept ancestor. This is how per-pass rows are read through the
// existing BuildConfig.Trace / ProfileConfig.Trace fields.
func (t *tracer) importObs(parent int, at time.Duration, ot *obs.Trace, rename func(string) (string, bool)) error {
	if t == nil {
		return nil
	}
	var buf bytes.Buffer
	if err := ot.WriteChrome(&buf); err != nil {
		return err
	}
	var ct struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &ct); err != nil {
		return err
	}
	program := t.spans[parent].Program
	// Events are exported parents first, so a parent is always known.
	owner := map[string]int{}
	for _, ev := range ct.TraceEvents {
		up := parent
		if pid, ok := ev.Args["parent_span_id"].(string); ok {
			if idx, ok := owner[pid]; ok {
				up = idx
			}
		}
		id, _ := ev.Args["span_id"].(string)
		name, keep := rename(ev.Name)
		if !keep {
			owner[id] = up
			continue
		}
		t.spans = append(t.spans, span{
			Name:    name,
			Start:   at + time.Duration(ev.Ts*float64(time.Microsecond)),
			Dur:     time.Duration(ev.Dur * float64(time.Microsecond)),
			Parent:  up,
			Rep:     t.rep,
			Program: program,
		})
		owner[id] = len(t.spans) - 1
	}
	return nil
}

// selfTimes returns, per span, its duration minus the part of it that its
// child spans cover.
func (t *tracer) selfTimes() []time.Duration {
	children := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return t.spans[kids[a]].Start < t.spans[kids[b]].Start })
		covered := time.Duration(0)
		edge := s.Start // everything before edge is already counted
		for _, k := range kids {
			lo, hi := t.spans[k].Start, t.spans[k].Start+t.spans[k].Dur
			if lo < edge {
				lo = edge
			}
			if hi > s.Start+s.Dur {
				hi = s.Start + s.Dur
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.Dur - covered
	}
	return self
}

// layerOf returns the layer a span name belongs to.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// traceAgg sums span time and work by (rep, span name).
type traceAgg struct {
	dur, work, n map[int]map[string]float64
	timedSelf    map[string]float64 // self time inside bench.rep spans, by layer
	reps         []int              // timed reps seen, ascending
}

func (t *tracer) aggregate() *traceAgg {
	a := &traceAgg{
		dur: map[int]map[string]float64{}, work: map[int]map[string]float64{}, n: map[int]map[string]float64{},
		timedSelf: map[string]float64{},
	}
	if t == nil {
		return a
	}
	self := t.selfTimes()
	inRep := make([]bool, len(t.spans)) // a parent always precedes its children
	for i, s := range t.spans {
		if a.dur[s.Rep] == nil {
			a.dur[s.Rep], a.work[s.Rep], a.n[s.Rep] = map[string]float64{}, map[string]float64{}, map[string]float64{}
			if s.Rep >= 0 {
				a.reps = append(a.reps, s.Rep)
			}
		}
		a.dur[s.Rep][s.Name] += float64(s.Dur)
		a.work[s.Rep][s.Name] += s.Work
		a.n[s.Rep][s.Name]++
		inRep[i] = s.Name == "bench.rep" || (s.Parent >= 0 && inRep[s.Parent])
		if inRep[i] {
			a.timedSelf[layerOf(s.Name)] += float64(self[i])
		}
	}
	sort.Ints(a.reps)
	return a
}

// perRep returns the per-timed-rep sums of one span name from m.
func (a *traceAgg) perRep(m map[int]map[string]float64, name string) []float64 {
	out := make([]float64, 0, len(a.reps))
	for _, r := range a.reps {
		out = append(out, m[r][name])
	}
	return out
}

// medDur is the median over timed reps of the time spent in spans of that
// name, in nanoseconds.
func (a *traceAgg) medDur(name string) float64 { return median(a.perRep(a.dur, name)) }

// medEach is the median over timed reps of the mean duration of one span of
// that name, for operations a rep performs several times.
func (a *traceAgg) medEach(name string) float64 {
	each := make([]float64, 0, len(a.reps))
	for _, r := range a.reps {
		if n := a.n[r][name]; n > 0 {
			each = append(each, a.dur[r][name]/n)
		}
	}
	return median(each)
}

// outside is the time spent in spans of that name in the set-up or the
// verification phase.
func (a *traceAgg) outside(rep int, name string) float64 { return a.dur[rep][name] }

// rate is work per second over all timed reps of the named span.
func (a *traceAgg) rate(name string) float64 {
	var work, ns float64
	for _, r := range a.reps {
		work += a.work[r][name]
		ns += a.dur[r][name]
	}
	if ns == 0 {
		return 0
	}
	return work / (ns / 1e9)
}

// layerShares returns each layer's share of the self time of the timed
// reps, the number that shows which layer a workload is bound by.
func (a *traceAgg) layerShares() map[string]float64 {
	total := 0.0
	for _, ns := range a.timedSelf {
		total += ns
	}
	shares := map[string]float64{}
	for l, ns := range a.timedSelf {
		shares[l] = ns / total
	}
	return shares
}

// writeChrome writes the spans as Chrome trace-event JSON.
func (t *tracer) writeChrome(w io.Writer) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{
			Name: s.Name, Cat: layerOf(s.Name), Ph: "X",
			Ts:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.Dur) / float64(time.Microsecond),
			Pid: 1, Tid: 1,
			Args: map[string]any{"id": i, "parent": s.Parent, "workload": t.workload, "program": s.Program, "rep": s.Rep},
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{"traceEvents": events})
}
