package sim_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"csspgo/internal/pgo"
	"csspgo/internal/sim"
	"csspgo/internal/source"
	"csspgo/internal/workloads"
)

// testdata/golden.json is the simulator's contract: every count the machine
// produces — all Stats fields, return values, the PMU sample stream,
// instrumentation counters, the value profile and the overhead meter — for
// every workload and examples/ module, built plain, probed and instrumented,
// under four machine configurations. It was written by the interpreter that
// walked machine.Instr directly, before Run was rewritten over a decoded
// stream; Run may get faster only while this file reproduces byte for byte.
var update = flag.Bool("update", false, "rewrite testdata/golden.json from the current simulator")

const goldenRequests = 50

// goldenBound keeps request arguments inside the range where no program
// overflows or indexes out of range (the bench's bounds for the workloads).
var goldenBound = map[string]uint64{
	"adranker":    3000,
	"adfinder":    10000,
	"adretriever": 50000,
	"dispatcher":  50000,
	"hhvm":        100000,
	"haas":        100000,
	"clangish":    100000,
}

const exampleBound = 1000

type goldenProgram struct {
	name  string
	files []*source.File
	bound uint64
}

func goldenPrograms(t *testing.T) []goldenProgram {
	t.Helper()
	var out []goldenProgram
	for _, name := range workloads.AllNames() {
		w, err := workloads.Load(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, goldenProgram{name, w.Files, goldenBound[name]})
	}
	mods, err := filepath.Glob(filepath.Join("..", "..", "examples", "*", "*.ml"))
	if err != nil || len(mods) == 0 {
		t.Fatalf("no example modules (%v)", err)
	}
	sort.Strings(mods)
	for _, path := range mods {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		f, err := source.Parse(filepath.Base(path), string(data))
		if err != nil {
			t.Fatalf("parse %s: %v", path, err)
		}
		name := filepath.Base(filepath.Dir(path)) + "." + strings.TrimSuffix(filepath.Base(path), ".ml")
		out = append(out, goldenProgram{name, []*source.File{f}, exampleBound})
	}
	return out
}

// goldenStream is a splitmix64 stream of two-argument requests, seeded from
// the program name.
func goldenStream(name string, bound uint64) [][]int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	s := h.Sum64()
	next := func() uint64 {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	out := make([][]int64, goldenRequests)
	for i := range out {
		out[i] = []int64{int64(next() % bound), int64(next() % bound)}
	}
	return out
}

type goldenMeter struct {
	Samples      uint64
	FramesWalked uint64
	ProbeCycles  uint64
	SampleCycles uint64
	VProfCycles  uint64
	ProbeHits    string // FNV-1a over the sorted (id, hits) pairs
	FuncSamples  []string
	VProfHits    []string
}

type goldenEntry struct {
	Key          string
	Stats        sim.Stats
	Returns      string   // space-separated, one value per request
	Errors       []string `json:",omitempty"`
	Samples      int
	SampleDigest string
	Counters     int
	CounterSum   uint64
	CounterHash  string
	ValueProfile []string     `json:",omitempty"`
	Meter        *goldenMeter `json:",omitempty"`
}

// digest is FNV-1a over little-endian 64-bit words.
type digest struct{ h hash.Hash64 }

func newDigest() *digest { return &digest{fnv.New64a()} }

func (d *digest) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	d.h.Write(b[:])
}

func (d *digest) String() string { return fmt.Sprintf("%016x", d.h.Sum64()) }

func (d *digest) sample(s sim.Sample) {
	d.u64(uint64(len(s.LBR)))
	for _, b := range s.LBR {
		d.u64(b.From)
		d.u64(b.To)
	}
	d.u64(uint64(len(s.Stack)))
	for _, a := range s.Stack {
		d.u64(a)
	}
}

// digestSink digests streamed samples in stream order.
type digestSink struct {
	d *digest
	n int
}

func (s *digestSink) ConsumeChunk(ch *sim.SampleChunk) {
	for _, smp := range ch.Samples {
		s.d.sample(smp)
	}
	s.n += len(ch.Samples)
	sim.RecycleChunk(ch)
}

type goldenConfig struct {
	name  string
	cost  sim.CostParams
	pmu   sim.PMUConfig
	meter bool
}

func goldenConfigs() []goldenConfig {
	skid := sim.DefaultPMUConfig(199)
	skid.PEBS = false
	return []goldenConfig{
		{"nopmu", sim.DefaultCostParams(), sim.PMUConfig{}, false},
		{"pebs", sim.DefaultCostParams(), sim.DefaultPMUConfig(199), false},
		{"skid", sim.DefaultCostParams(), skid, false},
		{"metered", sim.ProfilingCostParams(), sim.DefaultPMUConfig(199), true},
	}
}

// goldenRun runs reqs on m, with an overhead meter attached when metered,
// and records everything the machine observed.
func goldenRun(key string, m *sim.Machine, metered bool, reqs [][]int64) goldenEntry {
	var meter *sim.OverheadMeter
	if metered {
		meter = sim.NewOverheadMeter()
		m.SetOverheadMeter(meter)
	}
	e := goldenEntry{Key: key}
	var rets []string
	for i, req := range reqs {
		v, err := m.Run(req...)
		if err != nil {
			e.Errors = append(e.Errors, fmt.Sprintf("%d: %v", i, err))
		}
		rets = append(rets, fmt.Sprint(v))
	}
	e.Returns = strings.Join(rets, " ")
	e.Stats = m.Stats()
	d := newDigest()
	for _, s := range m.Samples() {
		d.sample(s)
	}
	e.Samples = len(m.Samples())
	e.SampleDigest = d.String()

	cd := newDigest()
	for _, c := range m.Counters() {
		cd.u64(c)
		e.CounterSum += c
	}
	e.Counters = len(m.Counters())
	e.CounterHash = cd.String()

	vp := m.ValueProfile()
	for site, targets := range vp {
		for callee, n := range targets {
			e.ValueProfile = append(e.ValueProfile, fmt.Sprintf("%#x:%d=%d", site, callee, n))
		}
	}
	sort.Strings(e.ValueProfile)

	if meter != nil {
		gm := &goldenMeter{
			Samples:      meter.Samples,
			FramesWalked: meter.FramesWalked,
			ProbeCycles:  meter.ProbeCycles,
			SampleCycles: meter.SampleCycles,
			VProfCycles:  meter.VProfCycles,
		}
		ids := make([]int, 0, len(meter.ProbeHits))
		for id := range meter.ProbeHits {
			ids = append(ids, int(id))
		}
		sort.Ints(ids)
		pd := newDigest()
		for _, id := range ids {
			pd.u64(uint64(id))
			pd.u64(meter.ProbeHits[int32(id)])
		}
		gm.ProbeHits = pd.String()
		for fn, n := range meter.FuncSamples {
			gm.FuncSamples = append(gm.FuncSamples, fmt.Sprintf("%s=%d", fn, n))
		}
		sort.Strings(gm.FuncSamples)
		for site, n := range meter.VProfHits {
			gm.VProfHits = append(gm.VProfHits, fmt.Sprintf("%#x=%d", site, n))
		}
		sort.Strings(gm.VProfHits)
		e.Meter = gm
	}
	return e
}

// goldenBuilds are the three binaries of every golden program.
var goldenBuilds = []struct {
	name string
	cfg  pgo.BuildConfig
}{
	{"plain", pgo.BuildConfig{}},
	{"probed", pgo.BuildConfig{Probes: true}},
	{"instr", pgo.BuildConfig{Probes: true, Instrument: true}},
}

// TestGolden replays the pinned matrix and compares it with
// testdata/golden.json byte for byte. The streaming PMU path must deliver
// the same sample stream as the materialized one, so each sampling
// configuration is also run through a sink and its digest checked against
// the entry's.
func TestGolden(t *testing.T) {
	var entries []goldenEntry
	for _, p := range goldenPrograms(t) {
		reqs := goldenStream(p.name, p.bound)
		for _, b := range goldenBuilds {
			res, err := pgo.Build(p.files, b.cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", p.name, b.name, err)
			}
			for _, cfg := range goldenConfigs() {
				key := p.name + "/" + b.name + "/" + cfg.name
				e := goldenRun(key, sim.New(res.Bin, cfg.cost, cfg.pmu), cfg.meter, reqs)
				entries = append(entries, e)
				if cfg.pmu.SamplePeriod == 0 {
					continue
				}
				for _, chunk := range []int{0, 3} {
					m := sim.New(res.Bin, cfg.cost, cfg.pmu)
					sink := &digestSink{d: newDigest()}
					m.SetSampleSink(sink, chunk)
					for _, req := range reqs {
						m.Run(req...) //nolint:errcheck // errors are pinned by the materialized run
					}
					m.FlushSamples()
					if sink.n != e.Samples || sink.d.String() != e.SampleDigest {
						t.Errorf("%s: sink (chunk %d) saw %d samples digest %s, materialized run %d digest %s",
							key, chunk, sink.n, sink.d, e.Samples, e.SampleDigest)
					}
					if m.Stats() != e.Stats {
						t.Errorf("%s: sink (chunk %d) stats %+v, materialized %+v", key, chunk, m.Stats(), e.Stats)
					}
				}
			}
		}
	}
	got, err := json.MarshalIndent(entries, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d entries)", path, len(entries))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	var old []goldenEntry
	if err := json.Unmarshal(want, &old); err != nil {
		t.Fatalf("golden.json does not parse: %v", err)
	}
	byKey := map[string]goldenEntry{}
	for _, e := range old {
		byKey[e.Key] = e
	}
	shown := 0
	for _, e := range entries {
		a, _ := json.Marshal(e)
		b, _ := json.Marshal(byKey[e.Key])
		if !bytes.Equal(a, b) && shown < 5 {
			t.Errorf("%s moved:\n got  %s\n want %s", e.Key, a, b)
			shown++
		}
	}
	t.Fatalf("simulator output differs from testdata/golden.json (%d entries now, %d pinned)", len(entries), len(old))
}
