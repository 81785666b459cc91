package experiments

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"csspgo/internal/drift"
	"csspgo/internal/fleet"
	"csspgo/internal/introspect"
	"csspgo/internal/obs"
	"csspgo/internal/pgo"
	"csspgo/internal/profdata"
	"csspgo/internal/quality"
	"csspgo/internal/workloads"
)

// This file is the fleet fault-injection harness: it simulates a fleet of
// `csspgo serve` instances profiling the same workload under heterogeneous
// traffic (one seeded request stream per instance), points the fleet
// aggregator at them over real loopback HTTP, and measures — for every
// injectable fault kind at a fixed incidence — how far the merged profile
// drifts from the all-healthy merge. The pinned bound below is the
// robustness contract: a 30%-faulty fleet must still aggregate to within
// fleetOverlapBound context overlap of the healthy merge, the promotion
// gate must promote exactly the candidates inside the bound, and a poisoned
// candidate must be rejected with last-good preserved byte-for-byte.

const (
	// fleetInstances is the simulated fleet size of the full matrix.
	fleetInstances = 10
	// fleetFaultyInstances is how many instances each cell breaks (30%).
	fleetFaultyInstances = 3
	// fleetOverlapBound is the pinned floor on the context overlap between
	// the faulty-fleet merge and the all-healthy merge of the same round.
	fleetOverlapBound = 0.80
)

// fleetFaultCell is one fault kind's measurement at the fixed incidence.
type fleetFaultCell struct {
	Fault  fleet.Fault
	Faulty int // instances the fault was injected into

	Healthy     int     // sources that still merged in the faulty round
	Overlap     float64 // merged profile vs. all-healthy merge
	WithinBound bool

	Promoted   bool // faulty-round merge passed the promotion gate
	RolledBack bool // gate rejected it and last-good was retained

	Skipped      int // records the lenient decoder dropped in the faulty round
	QuotaClamped int // sources clamped to the per-source sample quota
	Replays      int // epoch replays rejected
	Excluded     map[fleet.SourceState]int
}

// fleetFaultsResult is the full fault matrix plus the poisoned-candidate
// gate check.
type fleetFaultsResult struct {
	Workload  string
	Instances int
	Bound     float64

	Cells []fleetFaultCell

	// The poisoned-candidate check: a structurally valid profile with
	// adversarially skewed counts must be rejected by the gate, and the
	// rollback must leave the last-good artifact byte-identical.
	PoisonRejected      bool
	PoisonOverlap       float64
	PoisonByteIdentical bool
}

// runFleetFaults runs the fleet fault matrix: fleetInstances simulated
// serve instances over loopback HTTP, every fault kind injected into
// fleetFaultyInstances of them, merged under quota/freshness/breaker policy
// and gated. It returns an error if any cell violates the pinned contract,
// so `experiments -run fleetfaults` fails loudly instead of printing a
// quietly-degraded table.
func fleetFaults(scale int) (*fleetFaultsResult, error) {
	res, err := runFleetFaults("adranker", fleetInstances, fleetFaultyInstances, scale, 23)
	if err != nil {
		return nil, err
	}
	return res, res.Check()
}

// fleetInstance is one simulated serve instance: a profile server behind a
// fault injector on a real loopback listener.
type fleetInstance struct {
	srv      *introspect.Server
	injector *fleet.Injector
	prof     *profdata.Profile
	url      string
}

func runFleetFaults(workload string, instances, faulty, scale int, seed uint64) (*fleetFaultsResult, error) {
	if faulty >= instances {
		return nil, fmt.Errorf("fleet harness: %d faulty of %d instances", faulty, instances)
	}
	w, err := workloads.Load(workload, scale)
	if err != nil {
		return nil, err
	}
	base, err := pgo.Build(w.Files, pgo.BuildConfig{Probes: true})
	if err != nil {
		return nil, fmt.Errorf("fleet harness: build: %w", err)
	}

	// One instance per seeded traffic mix: same program, different request
	// streams, so the fleet's shards agree on shape but not on weights —
	// the heterogeneity a cross-instance merge exists to average out.
	insts := make([]*fleetInstance, instances)
	ctx, cancel := context.WithCancel(context.Background())
	var serving sync.WaitGroup
	defer func() {
		cancel()
		serving.Wait()
	}()
	for i := range insts {
		train := pgo.SeededRequests(len(w.Train), int64(seed)+int64(i)*13, 1000)
		prof, err := pgo.CollectProfileFor(base, pgo.FullCS, train)
		if err != nil {
			return nil, fmt.Errorf("fleet harness: instance %d profile: %w", i, err)
		}
		inst := &fleetInstance{
			srv:  introspect.NewServer("fleet", obs.NewRegistry()),
			prof: prof,
		}
		if err := inst.srv.SetProfile(prof, nil); err != nil {
			return nil, fmt.Errorf("fleet harness: instance %d: %w", i, err)
		}
		inst.injector = fleet.NewInjector(inst.srv.Handler(), seed+uint64(i)*101)
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("fleet harness: listen: %w", err)
		}
		// The daemons' own loop: its timeouts are seconds, the aggregator's
		// 250 ms, so a hung or dripping instance still runs into the
		// aggregator's deadline and never the server's.
		serving.Add(1)
		go func() {
			defer serving.Done()
			obs.Serve(ctx, l, inst.injector)
		}()
		inst.url = "http://" + l.Addr().String() + "/profiles/fleet"
		insts[i] = inst
	}

	out := &fleetFaultsResult{Workload: workload, Instances: instances, Bound: fleetOverlapBound}
	for _, f := range fleet.AllFaults() {
		cell, err := runFleetFaultCell(insts, f, faulty, seed)
		if err != nil {
			return nil, fmt.Errorf("fleet harness: %s: %w", f, err)
		}
		out.Cells = append(out.Cells, cell)
	}

	// The poisoned candidate: merged from a healthy fleet, then counts
	// skewed. The gate's overlap floor must reject it and keep last-good
	// byte-identical — the injected regression `csspgo fleet -inject` and
	// the CI lane replay end-to-end.
	healthy, err := healthyMerge(insts, seed)
	if err != nil {
		return nil, err
	}
	prom := fleet.NewPromoter(fleet.PromoteConfig{MinOverlap: fleetOverlapBound}, nil)
	art, _ := prom.Promote(healthy.Clone(), nil)
	if art == nil {
		return nil, fmt.Errorf("fleet harness: seeding promoter failed")
	}
	before := append([]byte(nil), art.Encoded...)
	poisonedArt, gres := prom.Promote(drift.PoisonCounts(healthy), nil)
	out.PoisonRejected = poisonedArt == nil && gres.RolledBack
	out.PoisonOverlap = gres.Overlap
	out.PoisonByteIdentical = bytes.Equal(prom.LastGood().Encoded, before)
	return out, nil
}

// fleetAggConfig is the aggregation policy every cell runs under. Quota is
// derived from the fleet's own healthy totals: generous enough for any
// honest instance, tight enough that a count-inflating corrupt payload
// cannot dominate the merge.
func fleetAggConfig(insts []*fleetInstance, seed uint64, now func() time.Time) fleet.Config {
	var maxTotal uint64
	for _, inst := range insts {
		if t := inst.prof.TotalSamples(); t > maxTotal {
			maxTotal = t
		}
	}
	return fleet.Config{
		Fetch: fleet.FetchConfig{
			Timeout:     250 * time.Millisecond,
			Retries:     1,
			BackoffBase: time.Millisecond,
			BackoffMax:  4 * time.Millisecond,
			JitterSeed:  seed,
		},
		Breaker:   fleet.BreakerConfig{FailureThreshold: 2, Cooldown: 30 * time.Second, HalfOpenSuccesses: 1},
		Quota:     2 * maxTotal,
		Freshness: 10 * time.Minute,
		Now:       now,
	}
}

func fleetSources(insts []*fleetInstance) []*fleet.Source {
	srcs := make([]*fleet.Source, len(insts))
	for i, inst := range insts {
		srcs[i] = &fleet.Source{Name: fmt.Sprintf("inst%d", i), URL: inst.url}
	}
	return srcs
}

// healthyMerge heals the fleet and merges one all-healthy round.
func healthyMerge(insts []*fleetInstance, seed uint64) (*profdata.Profile, error) {
	for _, inst := range insts {
		inst.injector.SetFault(fleet.FaultNone)
	}
	clock := time.Unix(1_700_000_000, 0)
	agg := fleet.NewAggregator(fleetSources(insts), fleetAggConfig(insts, seed, func() time.Time { return clock }), nil)
	round := agg.RoundOnce(context.Background())
	if round.Healthy != len(insts) || round.Merged == nil {
		return nil, fmt.Errorf("healthy round merged %d/%d sources:\n%s", round.Healthy, len(insts), round.Summary())
	}
	return round.Merged, nil
}

// runFleetFaultCell measures one fault kind: a healthy warm-up round (which
// also fixes the all-healthy reference merge), then the fault injected into
// the first `faulty` instances and a second round aggregated under the same
// policy.
func runFleetFaultCell(insts []*fleetInstance, f fleet.Fault, faulty int, seed uint64) (fleetFaultCell, error) {
	cell := fleetFaultCell{Fault: f, Faulty: faulty, Excluded: map[fleet.SourceState]int{}}

	// Advance every instance one generation, remembering the outgoing
	// payload as the stale epoch a faulty replica would serve.
	for _, inst := range insts {
		inst.injector.SetFault(fleet.FaultNone)
		if cur := inst.srv.Current(); cur != nil {
			inst.injector.SetStalePayload(cur.Profile, cur.Generation)
		}
		if err := inst.srv.SetProfile(inst.prof, nil); err != nil {
			return cell, err
		}
	}

	clock := time.Unix(1_700_000_000, 0)
	cfg := fleetAggConfig(insts, seed, func() time.Time { return clock })
	agg := fleet.NewAggregator(fleetSources(insts), cfg, nil)

	warm := agg.RoundOnce(context.Background())
	if warm.Healthy != len(insts) || warm.Merged == nil {
		return cell, fmt.Errorf("warm-up round merged %d/%d sources:\n%s", warm.Healthy, len(insts), warm.Summary())
	}

	for i := 0; i < faulty; i++ {
		insts[i].injector.SetFault(f)
	}
	clock = clock.Add(time.Second)
	round := agg.RoundOnce(context.Background())
	if round.Merged == nil {
		return cell, fmt.Errorf("faulty round merged nothing:\n%s", round.Summary())
	}
	cell.Healthy = round.Healthy
	for _, o := range round.Outcomes {
		if o.State != fleet.StateMerged {
			cell.Excluded[o.State]++
		}
		cell.Skipped += o.Skipped
		if o.Clamped {
			cell.QuotaClamped++
		}
		if o.State == fleet.StateEpochReplay {
			cell.Replays++
		}
	}

	cell.Overlap = quality.DiffProfiles(warm.Merged, round.Merged).ContextOverlap
	cell.WithinBound = cell.Overlap >= fleetOverlapBound

	// The promotion gate sees exactly what `csspgo fleet` would hand it:
	// last-good = the healthy merge, candidate = the faulty-round merge.
	prom := fleet.NewPromoter(fleet.PromoteConfig{MinOverlap: fleetOverlapBound}, nil)
	if art, _ := prom.Promote(warm.Merged, nil); art == nil {
		return cell, fmt.Errorf("seeding promoter failed")
	}
	art, gres := prom.Promote(round.Merged, nil)
	cell.Promoted = art != nil
	cell.RolledBack = gres.RolledBack
	return cell, nil
}

// Check enforces the pinned contract the matrix exists to prove.
func (r *fleetFaultsResult) Check() error {
	for _, c := range r.Cells {
		if !c.WithinBound {
			return fmt.Errorf("fleet harness: %s at %d/%d faulty: overlap %.4f below pinned bound %.2f",
				c.Fault, c.Faulty, r.Instances, c.Overlap, r.Bound)
		}
		if c.Promoted == c.RolledBack {
			return fmt.Errorf("fleet harness: %s: promoted=%v rolledback=%v — gate must decide exactly one",
				c.Fault, c.Promoted, c.RolledBack)
		}
		if !c.Promoted {
			return fmt.Errorf("fleet harness: %s: in-bound merge failed the gate", c.Fault)
		}
	}
	if !r.PoisonRejected {
		return fmt.Errorf("fleet harness: poisoned candidate passed the gate (overlap %.4f)", r.PoisonOverlap)
	}
	if !r.PoisonByteIdentical {
		return fmt.Errorf("fleet harness: rollback did not preserve last-good byte-identically")
	}
	return nil
}

func (r *fleetFaultsResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Fleet fault matrix — %s, %d instances, %d faulty, overlap bound %.2f\n",
		r.Workload, r.Instances, firstFaulty(r), r.Bound)
	fmt.Fprintf(&sb, "%-12s %8s %8s %6s %9s %8s %7s %8s\n",
		"fault", "healthy", "overlap", "bound", "promoted", "skipped", "clamps", "replays")
	for _, c := range r.Cells {
		bound, promoted := "ok", "yes"
		if !c.WithinBound {
			bound = "FAIL"
		}
		if !c.Promoted {
			promoted = "ROLLBACK"
		}
		fmt.Fprintf(&sb, "%-12s %5d/%-2d %8.4f %6s %9s %8d %7d %8d\n",
			c.Fault, c.Healthy, r.Instances, c.Overlap, bound, promoted, c.Skipped, c.QuotaClamped, c.Replays)
	}
	poison := "rejected, last-good byte-identical"
	if !r.PoisonRejected || !r.PoisonByteIdentical {
		poison = "NOT CAUGHT"
	}
	fmt.Fprintf(&sb, "poisoned candidate (overlap %.4f): %s\n", r.PoisonOverlap, poison)
	return sb.String()
}

// Gauges publishes every cell's overlap and surviving sources, the bound
// and the poisoned candidate's overlap.
func (r *fleetFaultsResult) Gauges() map[string]float64 {
	g := map[string]float64{"overlap_bound": r.Bound, "poison_overlap": r.PoisonOverlap}
	for _, c := range r.Cells {
		// Fault names use '-', the metric grammar wants '_'.
		key := strings.ReplaceAll(c.Fault.String(), "-", "_")
		g[key+".overlap"] = c.Overlap
		g[key+".healthy_sources"] = float64(c.Healthy)
	}
	return g
}

func firstFaulty(r *fleetFaultsResult) int {
	if len(r.Cells) == 0 {
		return 0
	}
	return r.Cells[0].Faulty
}
