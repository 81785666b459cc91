package fleet

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"csspgo/internal/obs"
	"csspgo/internal/profdata"
	"csspgo/internal/quality"
)

// Artifact is one promoted (last-good) generation of the fleet's merged
// profile. Encoded is rendered at promotion time, so the servable bytes and
// the profile can never disagree; the whole artifact swaps behind one
// atomic pointer, so readers never observe a torn generation.
type Artifact struct {
	Profile    *profdata.Profile
	Encoded    []byte // canonical text encoding, rendered at promotion
	Manifest   *obs.Report
	Generation uint64
	PromotedAt time.Time
}

// WriteFile persists the artifact's encoded profile atomically: the bytes
// land in a temp file first and are renamed into place, so a reader (or a
// crash) can never observe a torn last-good file.
func (a *Artifact) WriteFile(path string) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".fleet-artifact-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(a.Encoded); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// PromoteConfig tunes the promotion gate.
type PromoteConfig struct {
	// MinOverlap is the floor on the candidate's weighted context overlap
	// against the last-good profile: a candidate whose weight distribution
	// moved further than this is rejected (default 0.5; the "Stale Profile
	// Matching" guard against promoting degraded or poisoned profiles).
	MinOverlap float64
	// Now is the promotion clock (nil = time.Now).
	Now func() time.Time
	// Journal, when set, receives promotion / rollback / overlap_degrading
	// events carrying the gate's triggering metric values.
	Journal *obs.Journal
}

// GateResult says what the gate decided about one candidate.
type GateResult struct {
	OK         bool
	Overlap    float64 // weighted context overlap vs. last-good (1 when unconditional)
	Diff       string  // rendered manifest diff (empty for the first generation)
	Reasons    []string
	RolledBack bool // candidate rejected, last-good retained
}

func (g GateResult) String() string {
	if g.OK {
		return fmt.Sprintf("promoted (overlap %.4f)", g.Overlap)
	}
	return fmt.Sprintf("rejected (overlap %.4f): %s", g.Overlap, strings.Join(g.Reasons, "; "))
}

// Promoter guards the last-good merged artifact behind the promotion gate.
// Promotion is strictly gated: a candidate that fails the gate is discarded
// and the previous artifact stays current (the "rollback" — last-good is
// always servable and never torn, because it is only ever replaced whole,
// never edited).
type Promoter struct {
	cfg   PromoteConfig
	reg   *obs.Registry
	now   func() time.Time
	trend *overlapTrend

	cur atomic.Pointer[Artifact]
	gen atomic.Uint64

	// Round context for journaled events, set by BeginRound. Promote is
	// called from the round loop (sequential), so no locking is needed.
	round uint64
	rctx  obs.SpanContext
}

// NewPromoter returns an empty promoter publishing fleet.gate.* metrics
// into reg (nil for none).
func NewPromoter(cfg PromoteConfig, reg *obs.Registry) *Promoter {
	if cfg.MinOverlap <= 0 {
		cfg.MinOverlap = 0.5
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &Promoter{cfg: cfg, reg: reg, now: cfg.Now, trend: newOverlapTrend()}
}

// BeginRound tells the promoter which aggregation round (and round span)
// subsequent gate events belong to.
func (p *Promoter) BeginRound(round uint64, ctx obs.SpanContext) {
	p.round = round
	p.rctx = ctx
}

// emit journals one gate event stamped with the current round context
// (no-op without a journal).
func (p *Promoter) emit(e obs.Event) {
	if p.cfg.Journal == nil {
		return
	}
	e.Round = p.round
	e.TraceID = p.rctx.TraceID
	e.SpanID = p.rctx.SpanID
	p.cfg.Journal.Emit(e)
	p.reg.Grouped(func() {
		p.reg.Counter(obs.MFleetEventsEmitted).Add(1)
		if e.Type == obs.EvOverlapDegrading {
			p.reg.Counter(obs.MFleetEventsOverlapDegrading).Add(1)
		}
	})
}

// LastGood returns the current artifact (nil before the first promotion).
func (p *Promoter) LastGood() *Artifact { return p.cur.Load() }

// adopt installs an artifact as last-good without gating — used to seed
// the promoter from a persisted artifact at startup.
func (p *Promoter) adopt(a *Artifact) {
	if a.Generation == 0 {
		a.Generation = p.gen.Add(1)
	} else {
		p.gen.Store(a.Generation)
	}
	if a.Manifest == nil {
		a.Manifest = obs.NewReport("csspgo fleet")
	}
	p.cur.Store(a)
}

// AdoptEncoded decodes a persisted last-good artifact (text or binary) and
// adopts it byte-for-byte: Encoded keeps the original bytes, so a later
// rollback restores exactly what was on disk.
func (p *Promoter) AdoptEncoded(data []byte) error {
	prof, err := profdata.Decode(data)
	if err != nil {
		return fmt.Errorf("fleet: adopt last-good: %w", err)
	}
	p.adopt(&Artifact{
		Profile:    prof,
		Encoded:    append([]byte(nil), data...),
		PromotedAt: p.now(),
	})
	return nil
}

// Promote gates the candidate against last-good and either swaps it in
// (returning the new artifact) or rolls back to the previous generation
// (returning nil and a GateResult saying why). The first candidate is
// promoted unconditionally. The candidate profile is owned by the promoter
// after a successful promotion and must not be mutated by the caller.
func (p *Promoter) Promote(cand *profdata.Profile, manifest *obs.Report) (*Artifact, GateResult) {
	if manifest == nil {
		manifest = obs.NewReport("csspgo fleet")
	}
	if manifest.Quality == nil {
		manifest.Quality = map[string]float64{}
	}
	last := p.cur.Load()
	res := GateResult{OK: true, Overlap: 1}
	if last != nil {
		res = p.gate(last, cand, manifest)
		// Watch the gate margin erode *before* the gate fires: two
		// consecutive EWMA declines journal an overlap_degrading warning, so
		// the first rejection of a slowly-poisoned fleet is never a surprise.
		margin := res.Overlap - p.cfg.MinOverlap
		if p.trend.Observe(margin) {
			p.emit(obs.Event{
				Type: obs.EvOverlapDegrading,
				Metrics: map[string]float64{
					"overlap": res.Overlap, "margin": margin, "ewma_margin": p.trend.level(),
				},
				Detail: "promotion-gate margin eroding across rounds",
			})
		}
	}
	manifest.Quality["fleet.gate.context_overlap"] = res.Overlap
	if !res.OK {
		res.RolledBack = true
		p.reg.Grouped(func() {
			p.reg.Counter(obs.MFleetGateFailures).Add(1)
			p.reg.Counter(obs.MFleetRollbacks).Add(1)
		})
		p.emit(obs.Event{
			Type:    obs.EvRollback,
			Metrics: map[string]float64{"overlap": res.Overlap, "generation": float64(p.gen.Load())},
			Detail:  strings.Join(res.Reasons, "; "),
		})
		return nil, res
	}
	// The last-good encoding, plus an eighth, is room for the candidate's.
	var room int
	if last != nil {
		room = len(last.Encoded) + len(last.Encoded)/8
	}
	art := &Artifact{
		Profile:    cand,
		Encoded:    profdata.AppendText(make([]byte, 0, room), cand),
		Manifest:   manifest,
		Generation: p.gen.Add(1),
		PromotedAt: p.now(),
	}
	p.cur.Store(art)
	p.reg.Counter(obs.MFleetPromotions).Add(1)
	p.emit(obs.Event{
		Type:    obs.EvPromotion,
		Metrics: map[string]float64{"overlap": res.Overlap, "generation": float64(art.Generation)},
		Detail:  "candidate promoted to last-good",
	})
	return art, res
}

// gate runs the two-part promotion check: the context-overlap floor against
// last-good, and the `report -diff` regression diff of the last-good and
// candidate run manifests at obs.DefaultRegressionThreshold. The manifests
// are normalized first, so only deterministic quality/metric regressions
// can fail it, never wall-clock noise; a caller that passes no manifest
// diffs two empty ones, and only the overlap floor gates.
func (p *Promoter) gate(last *Artifact, cand *profdata.Profile, manifest *obs.Report) GateResult {
	res := GateResult{OK: true}
	res.Overlap = quality.DiffProfiles(last.Profile, cand).ContextOverlap
	if res.Overlap < p.cfg.MinOverlap {
		res.OK = false
		res.Reasons = append(res.Reasons,
			fmt.Sprintf("context overlap %.4f below floor %.4f", res.Overlap, p.cfg.MinOverlap))
	}
	// The overlap score is gated by its explicit floor above, not by the
	// manifest diff: each generation's recorded overlap is measured against
	// a *different* predecessor, so diffing them across generations would
	// compare incommensurable numbers.
	a, b := last.Manifest.Clone(), manifest.Clone()
	a.Normalize()
	b.Normalize()
	delete(a.Quality, "fleet.gate.context_overlap")
	delete(b.Quality, "fleet.gate.context_overlap")
	diff := obs.DiffReportsThreshold(a, b, obs.DefaultRegressionThreshold)
	res.Diff = diff.Text
	if diff.Regressions > 0 {
		res.OK = false
		res.Reasons = append(res.Reasons,
			fmt.Sprintf("%d manifest regression(s) beyond %.0f%%", diff.Regressions, 100*obs.DefaultRegressionThreshold))
	}
	return res
}
