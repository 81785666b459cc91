package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"csspgo"
	"csspgo/internal/drift"
	"csspgo/internal/fleet"
	"csspgo/internal/introspect"
	"csspgo/internal/machine"
	"csspgo/internal/obs"
	"csspgo/internal/pgo"
	"csspgo/internal/preinline"
	"csspgo/internal/profdata"
	"csspgo/internal/quality"
	"csspgo/internal/sampling"
	"csspgo/internal/sim"
	"csspgo/internal/source"
)

// params are the inputs of one run.
type params struct {
	seed uint64
	// shrink divides the training and sample stream lengths; 1 when
	// measuring, 10 in the smoke test. Eval streams are never cut, because the
	// golden digests are taken over the full eval stream.
	shrink int
}

func (p params) cut(n int) int {
	if p.shrink > 1 {
		n /= p.shrink
	}
	if n < 1 {
		return 1
	}
	return n
}

// instance is one workload, set up and ready to repeat its unit of work.
type instance interface {
	// rep does one unit of work. With a tracer it takes the decomposed path
	// that records a span around every call into a layer.
	rep(tr *tracer, chk *check)
	// products returns the binaries of the latest rep, each with its eval
	// stream and reference outputs. Building them is not timed.
	products(chk *check) []product
	// verify runs the workload's own end-of-run checks.
	verify(tr *tracer, chk *check)
	// counts returns the count-type layer rows of the latest traced rep.
	counts() counts
	close()
}

// counted is what every instance shares: the count rows of the rep under
// way, and nothing to verify or to close unless the workload says so.
type counted struct{ cnt counts }

func (c *counted) counts() counts                { return c.cnt }
func (c *counted) verify(tr *tracer, chk *check) {}
func (c *counted) close()                        {}

// prober is an instance with read-side work that belongs to no rep; the
// traced run calls it between reps.
type prober interface {
	probe(tr *tracer, chk *check)
}

// workloadDef names a workload and says why it exists.
type workloadDef struct {
	name  string
	why   string
	setup func(p params, tr *tracer, g golden, chk *check) (instance, error)
}

var workloadDefs = []workloadDef{
	{
		name: "build-bound",
		why:  "all 7 programs, 60 training requests: the two compiles dominate, so an opt/inference/codegen speed-up shows here",
		setup: func(p params, tr *tracer, g golden, chk *check) (instance, error) {
			return setupPipeline(allPrograms, 60, p, tr, g, chk)
		},
	},
	{
		name: "profile-bound",
		why:  "5 server programs, 600 training requests: the PMU-sampled simulation dominates and the profile is dense",
		setup: func(p params, tr *tracer, g golden, chk *check) (instance, error) {
			return setupPipeline(serverPrograms, 600, p, tr, g, chk)
		},
	},
	{
		name:  "profgen-bound",
		why:   "materialized samples through generate, trim, pre-inline, encode: sampling/preinline/profdata do all the work, sim and opt none",
		setup: setupProfgen,
	},
	{
		name:  "stale-rebuild",
		why:   "pristine profile applied to 4 source mutations: decode, stale matcher and the degradation ladder, which fresh profiles never enter",
		setup: setupStale,
	},
	{
		name:  "control-plane",
		why:   "8 serve instances, one aggregator, one promoter over loopback HTTP: codecs, merge, diff, rendering and fetch, under 1% of any compile",
		setup: setupControl,
	},
}

func findWorkload(name string) *workloadDef {
	for i := range workloadDefs {
		if workloadDefs[i].name == name {
			return &workloadDefs[i]
		}
	}
	return nil
}

// program is one evaluation program with its streams and O0 reference.
type program struct {
	name  string
	files []*source.File
	train [][]int64
	eval  [][]int64
	want  []int64 // O0 outputs on eval
}

// referenceOutputs builds the O0 binary of the files, runs the eval stream
// and checks the outputs against the frozen digest where one exists.
func referenceOutputs(label string, files []*source.File, eval [][]int64, seed uint64, tr *tracer, g golden, chk *check) ([]int64, error) {
	sp := tr.begin("bench.reference", label)
	defer tr.end(sp)
	ref, err := reference(files)
	if err != nil {
		return nil, fmt.Errorf("%s: O0 build: %w", label, err)
	}
	want, _, err := runOutputs(ref, eval)
	if err != nil {
		return nil, fmt.Errorf("%s: O0 run: %w", label, err)
	}
	g.check(seed, label, want, chk)
	return want, nil
}

// loadPrograms is the part of set-up every workload shares: load the
// sources, generate both streams from the seed, build the reference.
func loadPrograms(names []string, trainN int, p params, tr *tracer, g golden, chk *check) ([]*program, error) {
	out := make([]*program, 0, len(names))
	for _, name := range names {
		sp := tr.begin("source.load", name)
		files, err := loadProgram(name)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		pr := &program{
			name:  name,
			files: files,
			train: stream(name, p.seed, p.cut(trainN)),
			eval:  stream(name, p.seed+evalSeedOffset, evalRequests),
		}
		if pr.want, err = referenceOutputs(name, files, pr.eval, p.seed, tr, g, chk); err != nil {
			return nil, err
		}
		out = append(out, pr)
	}
	return out, nil
}

// trimThreshold is the cold-context threshold of the FullCS pipeline
// (contexts under 0.05% of all samples fold into base profiles). The
// pipeline keeps it unexported, so the stages the bench drives one by one
// restate it; the traced run checks that both paths build the same binary.
func trimThreshold(prof *profdata.Profile) uint64 {
	if t := prof.TotalSamples() / 2000; t > 2 {
		return t
	}
	return 2
}

// useConfig is the build that consumes a CS profile.
func useConfig(prof *profdata.Profile) pgo.BuildConfig {
	return pgo.BuildConfig{Probes: true, Profile: prof, UsePreInlineDecisions: true}
}

// ---- build-bound and profile-bound ----

// pipelineInst runs source → training binary → profile → optimized binary.
type pipelineInst struct {
	counted
	programs []*program
	built    []*pgo.BuildResult
}

func setupPipeline(names []string, trainN int, p params, tr *tracer, g golden, chk *check) (instance, error) {
	programs, err := loadPrograms(names, trainN, p, tr, g, chk)
	if err != nil {
		return nil, err
	}
	return &pipelineInst{programs: programs, built: make([]*pgo.BuildResult, len(programs))}, nil
}

func (w *pipelineInst) rep(tr *tracer, chk *check) {
	w.cnt = counts{}
	for i, p := range w.programs {
		var res *pgo.BuildResult
		var err error
		if tr == nil {
			res, _, err = pgo.Pipeline(p.files, pgo.FullCS, p.train)
		} else {
			res, err = tracedPipeline(tr, p, w.cnt)
		}
		if chk.call(err, "pipeline "+p.name) {
			w.built[i] = res
		}
	}
}

func (w *pipelineInst) products(chk *check) []product {
	out := make([]product, 0, len(w.programs))
	for i, p := range w.programs {
		if w.built[i] != nil {
			out = append(out, product{label: p.name, bin: w.built[i].Bin, eval: p.eval, want: p.want})
		}
	}
	return out
}

// ---- profgen-bound ----

// profgenSamplePeriod is denser than the production period, to get a
// sample stream worth timing out of a short simulation.
const profgenSamplePeriod = 199

// profgenInst turns materialized samples into an encoded profile: the
// llvm-profgen stage on its own.
type profgenInst struct {
	counted
	programs []*program
	train    []*machine.Prog // probed training binaries
	samples  [][]sim.Sample
	first    [][]byte // encoded profile of the first rep
	last     [][]byte // and of the latest
}

func setupProfgen(p params, tr *tracer, g golden, chk *check) (instance, error) {
	programs, err := loadPrograms(serverPrograms, 1000, p, tr, g, chk)
	if err != nil {
		return nil, err
	}
	w := &profgenInst{
		programs: programs,
		first:    make([][]byte, len(programs)),
		last:     make([][]byte, len(programs)),
	}
	pc := pgo.DefaultProfileConfig()
	pc.Period = profgenSamplePeriod
	for _, pr := range programs {
		base, err := build(tr, "train", pr.name, pr.files, pgo.BuildConfig{Probes: true})
		if err != nil {
			return nil, fmt.Errorf("%s: training build: %w", pr.name, err)
		}
		sp := tr.begin("sim.collect", pr.name)
		samples, _, err := pgo.CollectSamples(base.Bin, pr.train, pc)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("%s: collect samples: %w", pr.name, err)
		}
		w.train = append(w.train, base.Bin)
		w.samples = append(w.samples, samples)
	}
	return w, nil
}

// generate is the profgen chain for one program.
func (w *profgenInst) generate(i int, opts sampling.CSSPGOOptions, tr *tracer, chk *check) []byte {
	name, bin, samples := w.programs[i].name, w.train[i], w.samples[i]

	var ot *obs.Trace
	var before memCount
	if tr != nil {
		ot = obs.NewTrace()
		opts.Trace = ot.Root()
		before = readMemCount()
	}
	sp := tr.begin("sampling.generate", name)
	at := tr.now()
	prof, us := sampling.GenerateCSSPGO(bin, samples, opts)
	tr.endWork(sp, float64(len(samples)))
	if tr != nil {
		w.cnt.add("sampling.mallocs", float64(readMemCount().mallocs-before.mallocs))
		w.cnt.add("sampling.samples", float64(len(samples)))
		chk.call(tr.importObs(sp, at, ot, renameSampling), "import sampling trace")
		w.cnt.add("sampling.contexts", float64(len(prof.Contexts)))
		w.cnt.add("sampling.dropped", float64(us.Dropped))
		w.cnt.add("sampling.truncated_ranges", float64(us.TruncatedRanges))
	}
	chk.op(us.Samples+us.Dropped == len(samples), "%s: unwinder saw %d+%d of %d samples", name, us.Samples, us.Dropped, len(samples))

	sp = tr.begin("profdata.trim", name)
	prof.TrimColdContexts(trimThreshold(prof))
	tr.end(sp)
	w.cnt.add("profdata.contexts_after_trim", float64(len(prof.Contexts)))

	sp = tr.begin("preinline.run", name)
	res := preinline.Run(prof, preinline.ExtractSizes(bin), preinline.DeriveParams(prof))
	tr.end(sp)
	w.cnt.add("preinline.inlined_contexts", float64(res.Inlined))

	sp = tr.begin("profdata.encode_bin", name)
	data := csspgo.EncodeProfileBinary(prof)
	tr.endWork(sp, float64(len(data)))
	w.cnt.add("profdata.profile_bytes", float64(len(data)))
	return data
}

func (w *profgenInst) rep(tr *tracer, chk *check) {
	w.cnt = counts{}
	for i, p := range w.programs {
		data := w.generate(i, sampling.DefaultCSSPGOOptions(), tr, chk)
		if w.first[i] == nil {
			w.first[i] = data
		}
		chk.op(bytes.Equal(w.first[i], data), "%s: profile bytes differ between reps", p.name)
		w.last[i] = data
	}
}

func (w *profgenInst) products(chk *check) []product {
	var out []product
	for i, p := range w.programs {
		prof, err := csspgo.DecodeProfileAny(w.last[i])
		if !chk.call(err, "decode "+p.name) {
			continue
		}
		res, err := pgo.Build(p.files, useConfig(prof))
		if chk.call(err, "build "+p.name) {
			out = append(out, product{label: p.name, bin: res.Bin, eval: p.eval, want: p.want})
		}
	}
	return out
}

// verify regenerates every profile on one worker: any worker count must
// give the same bytes.
func (w *profgenInst) verify(tr *tracer, chk *check) {
	kept := w.cnt
	w.cnt = nil // the serial regeneration is a check, not part of the rows
	opts := sampling.DefaultCSSPGOOptions()
	opts.Workers = 1
	for i, p := range w.programs {
		serial := w.generate(i, opts, nil, chk)
		chk.op(bytes.Equal(serial, w.last[i]), "%s: profile bytes differ between default workers and Workers=1", p.name)
	}
	w.cnt = kept
}

// ---- stale-rebuild ----

// staleCell is one (program, mutation): the drifted source, its own O0
// reference, and the pristine program's encoded profile.
type staleCell struct {
	program
	profile []byte
	built   *pgo.BuildResult
}

// staleInst rebuilds drifted sources with a profile of the pristine one.
type staleInst struct {
	counted
	cells []*staleCell
}

func setupStale(p params, tr *tracer, g golden, chk *check) (instance, error) {
	programs, err := loadPrograms(serverPrograms, 200, p, tr, g, chk)
	if err != nil {
		return nil, err
	}
	w := &staleInst{}
	for _, pr := range programs {
		sp := tr.begin("pgo.pipeline", pr.name)
		_, prof, err := pgo.Pipeline(pr.files, pgo.FullCS, pr.train)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("%s: pristine profile: %w", pr.name, err)
		}
		encoded := csspgo.EncodeProfileBinary(prof)
		for _, m := range staleMutations {
			sp := tr.begin("drift.apply", pr.name)
			drifted := drift.Apply(pr.files, m, p.seed)
			tr.end(sp)
			cell := &staleCell{profile: encoded}
			cell.name = pr.name + "/" + m.String()
			cell.files = drifted
			cell.eval = pr.eval
			if cell.want, err = referenceOutputs(cell.name, drifted, pr.eval, p.seed, tr, g, chk); err != nil {
				return nil, err
			}
			w.cells = append(w.cells, cell)
		}
	}
	return w, nil
}

func (w *staleInst) rep(tr *tracer, chk *check) {
	w.cnt = counts{}
	for _, c := range w.cells {
		sp := tr.begin("profdata.decode_bin", c.name)
		prof, err := csspgo.DecodeProfileAny(c.profile)
		tr.endWork(sp, float64(len(c.profile)))
		if !chk.call(err, "decode "+c.name) {
			continue
		}
		cfg := useConfig(prof)
		cfg.StaleMatching = true
		res, err := build(tr, "use", c.name, c.files, cfg)
		if chk.call(err, "rebuild "+c.name) {
			c.built = res
			if tr != nil {
				w.cnt.addBuild(res)
			}
		}
	}
}

func (w *staleInst) products(chk *check) []product {
	var out []product
	for _, c := range w.cells {
		if c.built != nil {
			out = append(out, product{label: c.name, bin: c.built.Bin, eval: c.eval, want: c.want})
		}
	}
	return out
}

// ---- control-plane ----

const (
	controlProgram   = "haas" // the largest CS profile of the seven
	controlInstances = 8
	// controlClients bounds the bench's own concurrent HTTP requests; it is
	// the core count of the box the benchmark was sized on.
	controlClients = 2
)

// serveInstance is one in-process `csspgo serve`: a refresher, the server
// it feeds, and a loopback listener.
type serveInstance struct {
	refresh func() (*profdata.Profile, *obs.Report, error)
	reg     *obs.Registry
	srv     *introspect.Server
	hs      *http.Server
	done    chan struct{} // closed when the listener goroutine has returned
	base    string        // http://127.0.0.1:port
	current *profdata.Profile
}

// controlInst is the serving fleet: a cycle refreshes and swaps every
// instance, aggregates one round and promotes the merge.
type controlInst struct {
	counted
	program   *program
	instances []*serveInstance
	agg       *fleet.Aggregator
	aggReg    *obs.Registry
	prom      *fleet.Promoter
	client    *http.Client
	merged    *profdata.Profile
}

func setupControl(p params, tr *tracer, g golden, chk *check) (instance, error) {
	programs, err := loadPrograms([]string{controlProgram}, 0, p, tr, g, chk)
	if err != nil {
		return nil, err
	}
	w := &controlInst{program: programs[0], aggReg: obs.NewRegistry(), client: &http.Client{}}
	ok := false
	defer func() {
		if !ok {
			w.close()
		}
	}()

	var maxTotal uint64
	var sources []*fleet.Source
	for i := 0; i < controlInstances; i++ {
		inst := &serveInstance{reg: obs.NewRegistry(), done: make(chan struct{})}
		train := stream(controlProgram, p.seed+13*uint64(i), p.cut(300))
		sp := tr.begin("pgo.new_refresher", controlProgram)
		inst.refresh, err = pgo.NewRefresher(w.program.files, train, pgo.DefaultProfileConfig(), inst.reg)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		inst.srv = introspect.NewServer(controlProgram, inst.reg)
		if err := inst.cycle(tr); err != nil {
			return nil, fmt.Errorf("instance %d: first refresh: %w", i, err)
		}
		if t := inst.current.TotalSamples(); t > maxTotal {
			maxTotal = t
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		inst.hs = &http.Server{Handler: inst.srv.Handler()}
		go func() {
			defer close(inst.done)
			inst.hs.Serve(l) // returns ErrServerClosed on close
		}()
		inst.base = "http://" + l.Addr().String()
		w.instances = append(w.instances, inst)
		sources = append(sources, &fleet.Source{Name: fmt.Sprintf("inst%d", i), URL: inst.base + "/profiles/" + controlProgram})
	}
	w.agg = fleet.NewAggregator(sources, fleet.Config{
		Fetch: fleet.FetchConfig{Retries: 1, BackoffBase: time.Millisecond, BackoffMax: 4 * time.Millisecond, JitterSeed: p.seed},
		Quota: 2 * maxTotal,
	}, w.aggReg)
	w.prom = fleet.NewPromoter(fleet.PromoteConfig{MinOverlap: 0.8}, nil)
	ok = true
	return w, nil
}

// cycle is one serve refresh: re-profile, then render and swap.
func (s *serveInstance) cycle(tr *tracer) error {
	sp := tr.begin("pgo.refresh", controlProgram)
	prof, rep, err := s.refresh()
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("introspect.swap", controlProgram)
	err = s.srv.SetProfile(prof, rep)
	tr.end(sp)
	s.current = prof
	return err
}

func (w *controlInst) rep(tr *tracer, chk *check) {
	w.cnt = counts{}
	for i, inst := range w.instances {
		chk.call(inst.cycle(tr), fmt.Sprintf("refresh instance %d", i))
	}
	sp := tr.begin("fleet.round", controlProgram)
	round := w.agg.RoundOnce(context.Background())
	tr.end(sp)
	if !chk.op(round.Healthy == len(w.instances) && round.Merged != nil, "round merged %d of %d sources:\n%s", round.Healthy, len(w.instances), round.Summary()) {
		return
	}
	sp = tr.begin("fleet.promote", controlProgram)
	art, gate := w.prom.Promote(round.Merged, nil)
	tr.end(sp)
	chk.op(art != nil, "merged candidate not promoted: %s", gate)
	w.merged = round.Merged
	w.cnt.add("fleet.sources_merged", float64(round.Healthy))
}

// products are what a build that pulls from the control plane would ship:
// haas built from the promoted fleet artifact, and from the profile each
// instance serves. Nine binaries instead of one also keep the exact rows
// from hinging on a single inlining decision.
func (w *controlInst) products(chk *check) []product {
	art := w.prom.LastGood()
	if !chk.op(art != nil, "no promoted artifact") {
		return nil
	}
	served := map[string][]byte{"promoted": art.Encoded}
	labels := []string{"promoted"}
	for i, inst := range w.instances {
		label := fmt.Sprintf("inst%d", i)
		served[label] = inst.srv.Current().Profile
		labels = append(labels, label)
	}
	var out []product
	for _, label := range labels {
		prof, err := csspgo.DecodeProfileAny(served[label])
		if !chk.call(err, "decode "+label) {
			continue
		}
		res, err := pgo.Build(w.program.files, useConfig(prof))
		if chk.call(err, "build from "+label) {
			out = append(out, product{label: controlProgram + "/" + label, bin: res.Bin, eval: w.program.eval, want: w.program.want})
		}
	}
	return out
}

// get fetches one URL and returns status, body and latency.
func (w *controlInst) get(url string) (int, []byte, time.Duration, error) {
	t0 := time.Now()
	resp, err := w.client.Get(url)
	if err != nil {
		return 0, nil, 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, body, time.Since(t0), err
}

// probe exercises, outside the cycle, the read side of the control plane:
// the three endpoints builds and humans pull, from at most controlClients
// concurrent clients, and the codecs, merge and diff under them. Each GET
// is a checked operation; /profiles must return exactly the text of the
// profile just set, and that text must decode to the same sample mass.
func (w *controlInst) probe(tr *tracer, chk *check) {
	type result struct {
		inst         int
		path         string
		status       int
		body         []byte
		start, taken time.Duration
		err          error
	}
	paths := map[string]string{"profiles": "/profiles/" + controlProgram, "flamegraph": "/flamegraph", "metrics": "/metrics"}
	jobs := make(chan result)
	results := make(chan result)
	var wg sync.WaitGroup
	for c := 0; c < controlClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				if tr != nil {
					j.start = tr.now()
				}
				j.status, j.body, j.taken, j.err = w.get(w.instances[j.inst].base + paths[j.path])
				results <- j
			}
		}()
	}
	go func() {
		for i := range w.instances {
			for _, name := range []string{"profiles", "flamegraph", "metrics"} {
				jobs <- result{inst: i, path: name}
			}
		}
		close(jobs)
		wg.Wait()
		close(results)
	}()
	bodies := make([][]byte, len(w.instances))
	for r := range results {
		if !chk.call(r.err, "GET "+paths[r.path]) {
			continue
		}
		chk.op(r.status == http.StatusOK, "GET %s on instance %d: status %d", paths[r.path], r.inst, r.status)
		tr.add("introspect.http_get."+r.path, controlProgram, r.start, r.taken, float64(len(r.body)))
		if r.path == "profiles" {
			bodies[r.inst] = r.body
			w.cnt.add("fleet.bytes_fetched", float64(len(r.body)))
		}
	}

	shards := make([]*profdata.Profile, 0, len(w.instances))
	for i, inst := range w.instances {
		body := bodies[i]
		sp := tr.begin("profdata.encode_text", controlProgram)
		text := csspgo.EncodeProfile(inst.current)
		tr.endWork(sp, float64(len(text)))
		chk.op(string(body) == text, "instance %d: /profiles is not the text of the profile just set", i)
		sp = tr.begin("profdata.decode_text", controlProgram)
		prof, err := csspgo.DecodeProfileAny(body)
		tr.endWork(sp, float64(len(body)))
		if !chk.call(err, fmt.Sprintf("decode /profiles of instance %d", i)) {
			continue
		}
		// Decoding the text is not the identity on the structure (a root
		// context "[main]" comes back as a base profile), so what is compared
		// is what a build consumes: the sample mass.
		chk.op(prof.TotalSamples() == inst.current.TotalSamples(), "instance %d: /profiles decodes to %d samples, the profile just set has %d", i, prof.TotalSamples(), inst.current.TotalSamples())
		shards = append(shards, prof)
	}
	if len(shards) == 0 || w.merged == nil {
		return
	}
	sp := tr.begin("introspect.folded", controlProgram)
	introspect.EncodeFoldedText(introspect.Folded(shards[0]))
	tr.end(sp)
	sp = tr.begin("quality.diff", controlProgram)
	d := quality.DiffProfiles(shards[0], w.merged)
	tr.end(sp)
	w.cnt.add("quality.context_overlap", d.ContextOverlap)
	sp = tr.begin("profdata.merge", controlProgram)
	profdata.MergeShards(shards) // shards are private copies; the first is consumed
	tr.end(sp)
}

// verify probes the endpoints once (the traced run already does per cycle)
// and then offers the promoter a poisoned candidate, which it must reject
// while keeping the last-good bytes unchanged.
func (w *controlInst) verify(tr *tracer, chk *check) {
	if tr == nil {
		w.probe(nil, chk)
	} else {
		snap := w.aggReg.Snapshot()
		w.cnt.add("fleet.retries", float64(snap[obs.MFleetFetchRetries].Value))
		w.cnt.add("overhead.refresh_pct", w.instances[0].reg.Snapshot()[obs.MOverheadPct].Gauge)
	}
	last := w.prom.LastGood()
	if !chk.op(last != nil, "no promoted artifact to poison") {
		return
	}
	before := append([]byte(nil), last.Encoded...)
	art, gate := w.prom.Promote(drift.PoisonCounts(last.Profile), nil)
	chk.op(art == nil && gate.RolledBack, "poisoned candidate passed the gate: %s", gate)
	chk.op(bytes.Equal(w.prom.LastGood().Encoded, before), "rollback changed the last-good bytes")
}

// close shuts every listener and waits for its goroutine.
func (w *controlInst) close() {
	for _, inst := range w.instances {
		if inst.hs != nil {
			inst.hs.Close()
			<-inst.done
		}
	}
	w.client.CloseIdleConnections()
}
