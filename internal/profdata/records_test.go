package profdata

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// This file holds the profile's counts to a model that keeps them the way
// the profile kept them before it kept records: a map of body counts and a
// map of call-target maps per function profile, with the operations written
// over those maps.

// modelFP is one function profile of the model.
type modelFP struct {
	name         string
	depth        int // frames of the context; 0 for a base profile
	total, head  uint64
	checksum     uint64
	shouldInline bool
	approx       bool
	blocks       map[LocKey]uint64
	calls        map[LocKey]map[string]uint64
}

func newModelFP(name string, depth int) *modelFP {
	return &modelFP{name: name, depth: depth, blocks: map[LocKey]uint64{}, calls: map[LocKey]map[string]uint64{}}
}

func (m *modelFP) addBody(loc LocKey, n uint64) {
	if n == 0 {
		return
	}
	m.blocks[loc] += n
	m.total += n
}

func (m *modelFP) addCall(loc LocKey, callee string, n uint64) {
	if n == 0 {
		return
	}
	if m.calls[loc] == nil {
		m.calls[loc] = map[string]uint64{}
	}
	m.calls[loc][callee] += n
}

func (m *modelFP) merge(src *modelFP) {
	for loc, n := range src.blocks {
		m.blocks[loc] += n
	}
	m.total += src.total
	m.head += src.head
	for loc, targets := range src.calls {
		for callee, n := range targets {
			m.addCall(loc, callee, n)
		}
	}
	if m.checksum == 0 {
		m.checksum = src.checksum
	}
	m.approx = m.approx || src.approx
}

func (m *modelFP) mapCounts(f func(uint64) uint64) {
	m.total = 0
	for loc, n := range m.blocks {
		m.blocks[loc] = f(n)
		m.total += m.blocks[loc]
	}
	for _, targets := range m.calls {
		for callee, n := range targets {
			targets[callee] = f(n)
		}
	}
}

func (m *modelFP) scale(num, den uint64) {
	if den == 0 {
		return
	}
	m.mapCounts(func(v uint64) uint64 { return v * num / den })
	m.head = m.head * num / den
}

func (m *modelFP) dropZeroCalls() {
	for loc, targets := range m.calls {
		for callee, n := range targets {
			if n == 0 {
				delete(targets, callee)
			}
		}
		if len(targets) == 0 {
			delete(m.calls, loc)
		}
	}
}

func (m *modelFP) clone() *modelFP {
	out := *m
	out.blocks, out.calls = map[LocKey]uint64{}, map[LocKey]map[string]uint64{}
	for loc, n := range m.blocks {
		out.blocks[loc] = n
	}
	for loc, targets := range m.calls {
		out.calls[loc] = map[string]uint64{}
		for callee, n := range targets {
			out.calls[loc][callee] = n
		}
	}
	return &out
}

// model is a whole profile of the model.
type model struct {
	funcs, contexts map[string]*modelFP
}

func newModel() *model {
	return &model{funcs: map[string]*modelFP{}, contexts: map[string]*modelFP{}}
}

// at returns the model profile for ctx, creating it as ContextProfile
// does: a context of one frame is its leaf's base profile.
func (m *model) at(ctx Context) *modelFP {
	if len(ctx) < 2 {
		if m.funcs[ctx.Leaf()] == nil {
			m.funcs[ctx.Leaf()] = newModelFP(ctx.Leaf(), 0)
		}
		return m.funcs[ctx.Leaf()]
	}
	key := ctx.Key()
	if m.contexts[key] == nil {
		m.contexts[key] = newModelFP(ctx.Leaf(), len(ctx))
	}
	return m.contexts[key]
}

func (m *model) clone() *model {
	out := newModel()
	for k, fp := range m.funcs {
		out.funcs[k] = fp.clone()
	}
	for k, fp := range m.contexts {
		out.contexts[k] = fp.clone()
	}
	return out
}

func (m *model) mergeContextIntoBase(key string) {
	fp := m.contexts[key]
	if fp == nil {
		return
	}
	delete(m.contexts, key)
	if base := m.funcs[fp.name]; base != nil {
		base.merge(fp)
		return
	}
	fp.depth, fp.shouldInline = 0, false
	fp.dropZeroCalls()
	m.funcs[fp.name] = fp
}

func (m *model) promote(key string) {
	cp := m.contexts[key]
	if cp == nil {
		return
	}
	if cp.depth <= 2 {
		m.mergeContextIntoBase(key)
		return
	}
	delete(m.contexts, key)
	shorter := key[strings.Index(key, " @ ")+len(" @ "):]
	if dst := m.contexts[shorter]; dst != nil {
		dst.shouldInline = dst.shouldInline || cp.shouldInline
		dst.merge(cp)
		return
	}
	cp.depth--
	cp.dropZeroCalls()
	m.contexts[shorter] = cp
}

func (m *model) trim(threshold uint64) {
	keys := make([]string, 0, len(m.contexts))
	for k := range m.contexts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if m.contexts[k].total < threshold {
			m.mergeContextIntoBase(k)
		}
	}
}

func (m *model) mergeProfile(src *model) {
	for k, fp := range src.funcs {
		if cur := m.funcs[k]; cur != nil {
			cur.merge(fp)
		} else {
			m.funcs[k] = fp.clone()
		}
	}
	for k, fp := range src.contexts {
		if cur := m.contexts[k]; cur != nil {
			cur.merge(fp)
		} else {
			m.contexts[k] = fp.clone()
		}
	}
}

// recordsMatch reports how fp's records differ from m's maps ("" when they
// are sorted, unique and hold exactly the model's counts, zero-valued ones
// included, with the same TotalSamples and HeadSamples).
func recordsMatch(fp *FunctionProfile, m *modelFP) string {
	if msg := recordsSortedUnique(fp); msg != "" {
		return msg
	}
	if fp.TotalSamples != m.total || fp.HeadSamples != m.head {
		return fmt.Sprintf("total/head %d/%d, model %d/%d", fp.TotalSamples, fp.HeadSamples, m.total, m.head)
	}
	if len(fp.Blocks) != len(m.blocks) {
		return fmt.Sprintf("%d body records, model %d", len(fp.Blocks), len(m.blocks))
	}
	for _, b := range fp.Blocks {
		if n, ok := m.blocks[b.Loc]; !ok || n != b.N {
			return fmt.Sprintf("body %s = %d, model %d (present %v)", b.Loc, b.N, n, ok)
		}
	}
	calls := 0
	for _, targets := range m.calls {
		calls += len(targets)
	}
	if len(fp.Calls) != calls {
		return fmt.Sprintf("%d call records, model %d", len(fp.Calls), calls)
	}
	for _, c := range fp.Calls {
		if n, ok := m.calls[c.Loc][c.Callee]; !ok || n != c.N {
			return fmt.Sprintf("call %s %s = %d, model %d (present %v)", c.Loc, c.Callee, c.N, n, ok)
		}
	}
	return ""
}

// recordsSortedUnique reports the first record of fp out of key order or
// repeating its predecessor's key, and a non-nil empty list.
func recordsSortedUnique(fp *FunctionProfile) string {
	locLess := func(a, b LocKey) bool { return a.ID < b.ID || a.ID == b.ID && a.Disc < b.Disc }
	for i := 1; i < len(fp.Blocks); i++ {
		if !locLess(fp.Blocks[i-1].Loc, fp.Blocks[i].Loc) {
			return fmt.Sprintf("body records %d and %d out of order: %v", i-1, i, fp.Blocks)
		}
	}
	for i := 1; i < len(fp.Calls); i++ {
		a, b := fp.Calls[i-1], fp.Calls[i]
		if !locLess(a.Loc, b.Loc) && !(a.Loc == b.Loc && a.Callee < b.Callee) {
			return fmt.Sprintf("call records %d and %d out of order: %v", i-1, i, fp.Calls)
		}
	}
	if fp.Blocks != nil && len(fp.Blocks) == 0 || fp.Calls != nil && len(fp.Calls) == 0 {
		return "an empty record list is not nil"
	}
	return ""
}

// profileMatches reports how p differs from m ("" when every profile
// matches its model).
func profileMatches(p *Profile, m *model) string {
	if len(p.Funcs) != len(m.funcs) || len(p.Contexts) != len(m.contexts) {
		return fmt.Sprintf("%d funcs and %d contexts, model %d and %d", len(p.Funcs), len(p.Contexts), len(m.funcs), len(m.contexts))
	}
	for _, side := range []struct {
		fps   map[string]*FunctionProfile
		model map[string]*modelFP
	}{{p.Funcs, m.funcs}, {p.Contexts, m.contexts}} {
		for k, fp := range side.fps {
			mfp := side.model[k]
			if mfp == nil {
				return fmt.Sprintf("[%s] is not in the model", k)
			}
			if msg := recordsMatch(fp, mfp); msg != "" {
				return fmt.Sprintf("[%s]: %s", k, msg)
			}
		}
	}
	return ""
}

// recordUniverse is the small space the random operations draw from, so
// that keys collide often.
var (
	modelContexts = []Context{
		NewContext("a"), NewContext("b"), NewContext("c"),
		NewContext("a", 1, "b"), NewContext("c", 2, "a", 1, "b"), NewContext("b", 3, "c"),
		NewContext("a", 4, "c", 2, "b"), NewContext("c", 2, "b"), NewContext("b", 1, "c", 2, "a", 1, "b"),
	}
	modelCallees = []string{"a", "b", "c", "d"}
)

func randomLoc(r *rand.Rand) LocKey {
	return LocKey{ID: int32(r.Intn(6)), Disc: int32(r.Intn(3)) * int32(r.Intn(2))}
}

// randomCount is zero now and then, small mostly, and large at times.
func randomCount(r *rand.Rand) uint64 {
	switch r.Intn(8) {
	case 0:
		return 0
	case 1:
		return uint64(r.Int63n(1 << 16))
	}
	return uint64(r.Intn(50))
}

// randomFill adds n random body and call counts to p and m.
func randomFill(r *rand.Rand, p *Profile, m *model, n int) {
	for i := 0; i < n; i++ {
		ctx := modelContexts[r.Intn(len(modelContexts))]
		fp, mfp := p.ContextProfile(ctx), m.at(ctx)
		loc, c := randomLoc(r), randomCount(r)
		if r.Intn(2) == 0 {
			fp.AddBody(loc, c)
			mfp.addBody(loc, c)
		} else {
			callee := modelCallees[r.Intn(len(modelCallees))]
			fp.AddCall(loc, callee, c)
			mfp.addCall(loc, callee, c)
		}
		if r.Intn(10) == 0 {
			fp.HeadSamples += c
			mfp.head += c
		}
	}
}

// randomOp applies one random operation to p and m alike and names it;
// it may replace both (Clone), returning the pair to go on with.
func randomOp(t *testing.T, r *rand.Rand, p *Profile, m *model) (*Profile, *model, string) {
	pick := func() (Context, *FunctionProfile, *modelFP) {
		ctx := modelContexts[r.Intn(len(modelContexts))]
		return ctx, p.ContextProfile(ctx), m.at(ctx)
	}
	switch r.Intn(10) {
	case 0, 1:
		randomFill(r, p, m, 1+r.Intn(6))
		return p, m, "AddBody/AddCall"
	case 2:
		_, dst, mdst := pick()
		ctx, src, msrc := pick()
		if src == dst {
			return p, m, "Merge (same profile, skipped)"
		}
		dst.Merge(src)
		mdst.merge(msrc)
		return p, m, "Merge from " + ctx.Key()
	case 3:
		ctx, fp, mfp := pick()
		num, den := uint64(r.Intn(4)), uint64(r.Intn(4))
		fp.Scale(num, den)
		mfp.scale(num, den)
		return p, m, fmt.Sprintf("Scale(%d, %d) of %s", num, den, ctx.Key())
	case 4:
		ctx, fp, mfp := pick()
		add := uint64(r.Intn(3))
		f := func(v uint64) uint64 { return v/2 + add }
		fp.MapCounts(f)
		mfp.mapCounts(f)
		return p, m, "MapCounts of " + ctx.Key()
	case 5:
		return p.Clone(), m.clone(), "Clone"
	case 6:
		keys := p.SortedContextKeys()
		if len(keys) == 0 {
			return p, m, "Promote (no contexts)"
		}
		key := keys[r.Intn(len(keys))]
		p.Promote(key)
		m.promote(key)
		return p, m, "Promote " + key
	case 7:
		threshold := uint64(r.Intn(100))
		p.TrimColdContexts(threshold)
		m.trim(threshold)
		return p, m, fmt.Sprintf("TrimColdContexts(%d)", threshold)
	case 8:
		shard, mshard := New(ProbeBased, true), newModel()
		randomFill(r, shard, mshard, 1+r.Intn(12))
		p = MergeShards([]*Profile{p, shard})
		m.mergeProfile(mshard)
		return p, m, "MergeShards"
	default:
		ctx, fp, mfp := pick()
		c := fp.Clone()
		if msg := recordsMatch(c, mfp); msg != "" {
			t.Fatalf("FunctionProfile.Clone of %s: %s", ctx.Key(), msg)
		}
		c.AddBody(LocKey{ID: 1}, 1)
		c.AddCall(LocKey{ID: 1}, "a", 1)
		return p, m, "FunctionProfile.Clone of " + ctx.Key()
	}
}

// shuffledText re-encodes p's text with every section's body and call
// lines shuffled, some repeated within their section and some repeated in
// a copy of the section opened again at the end, and returns it with the
// model a decode must produce.
func shuffledText(r *rand.Rand, p *Profile) (string, *model) {
	want := newModel()
	var out, again []string
	var header string
	var records []string
	flush := func() {
		r.Shuffle(len(records), func(i, j int) { records[i], records[j] = records[j], records[i] })
		out = append(out, records...)
		records = nil
	}
	var cur *modelFP
	for _, line := range strings.Split(strings.TrimSuffix(EncodeToString(p), "\n"), "\n") {
		fields := strings.Fields(line)
		switch {
		case strings.HasPrefix(line, "# end"):
			continue
		case strings.HasPrefix(line, "#"):
			out = append(out, line)
			continue
		case strings.HasPrefix(line, "["):
			flush()
			header = line
			ctx, err := ParseContext(line[1 : len(line)-1])
			if err != nil {
				panic(err)
			}
			cur = want.at(ctx)
			out = append(out, line)
			continue
		case fields[0] != "body" && fields[0] != "call":
			out = append(out, line)
			var n uint64
			fmt.Sscan(fields[len(fields)-1], &n)
			if fields[0] == "head" {
				cur.head += n
			}
			continue
		}
		times := 1 + r.Intn(3)
		for i := 0; i < times; i++ {
			if i > 0 && r.Intn(2) == 0 {
				again = append(again, header, line)
			} else {
				records = append(records, line)
			}
		}
		loc, err := parseLocKey(fields[1])
		if err != nil {
			panic(err)
		}
		var n uint64
		fmt.Sscan(fields[len(fields)-1], &n)
		for i := 0; i < times; i++ {
			if fields[0] == "body" {
				cur.addBody(loc, n)
			} else {
				cur.addCall(loc, fields[2], n)
			}
		}
	}
	flush()
	out = append(out, again...)
	out = append(out, endLine)
	return strings.Join(out, "\n") + "\n", want
}

// shuffledBinary encodes p in the binary format with every record's body
// and call records shuffled and some repeated, and every base profile's
// record repeated, in part, as a one-frame context record (which the
// decoder folds into the base profile), and returns it with the model a
// decode must produce. The encoder writes records as they are stored, so
// storing them out of order yields an out-of-order stream.
func shuffledBinary(r *rand.Rand, p *Profile) ([]byte, *model) {
	q, want := New(p.Kind, p.CS), newModel()
	copyShuffled := func(fp *FunctionProfile, ctx Context, keep int) *FunctionProfile {
		c := &FunctionProfile{Name: fp.Name, Context: ctx, HeadSamples: fp.HeadSamples}
		// Only the entry that receives the counts: a context's leaf gets no
		// base profile from it, in the decode or in the model.
		var m *modelFP
		if len(ctx) >= 2 {
			m = want.at(ctx)
		} else {
			m = want.at(NewContext(fp.Name))
		}
		m.head += fp.HeadSamples
		for _, b := range fp.Blocks {
			for i := r.Intn(keep + 1); i < 2; i++ {
				c.Blocks = append(c.Blocks, b)
				m.addBody(b.Loc, b.N)
			}
		}
		for _, cc := range fp.Calls {
			for i := r.Intn(keep + 1); i < 2; i++ {
				c.Calls = append(c.Calls, cc)
				m.addCall(cc.Loc, cc.Callee, cc.N)
			}
		}
		r.Shuffle(len(c.Blocks), func(i, j int) { c.Blocks[i], c.Blocks[j] = c.Blocks[j], c.Blocks[i] })
		r.Shuffle(len(c.Calls), func(i, j int) { c.Calls[i], c.Calls[j] = c.Calls[j], c.Calls[i] })
		return c
	}
	// Sorted keys, so that the seeded draws land on the same records in
	// every run, whatever the map order.
	for _, name := range sortedKeys(p.Funcs) {
		fp := p.Funcs[name]
		q.Funcs[name] = copyShuffled(fp, nil, 1)
		q.Contexts[name] = copyShuffled(fp, NewContext(name), 2)
	}
	for _, key := range sortedKeys(p.Contexts) {
		q.Contexts[key] = copyShuffled(p.Contexts[key], p.Contexts[key].Context, 1)
	}
	return EncodeBinary(q), want
}

// TestProfileRecordsMatchMapModel: random sequences of AddBody, AddCall,
// Merge, Scale, MapCounts, Clone, Promote, TrimColdContexts and MergeShards
// leave every profile's records sorted, unique and equal to the map
// model's counts, and so does a lenient decode of the profile's text with
// its record lines shuffled and repeated, and of its binary encoding with
// its records shuffled and repeated.
func TestProfileRecordsMatchMapModel(t *testing.T) {
	r := rand.New(rand.NewSource(45))
	for seq := 0; seq < 300; seq++ {
		p, m := New(ProbeBased, true), newModel()
		type snapshot struct {
			p *Profile
			m *model
		}
		var clones []snapshot
		var ops []string
		for step := 0; step < 40; step++ {
			before, mbefore := p, m
			var op string
			p, m, op = randomOp(t, r, p, m)
			ops = append(ops, op)
			if p != before && op == "Clone" {
				clones = append(clones, snapshot{before, mbefore.clone()})
			}
			if msg := profileMatches(p, m); msg != "" {
				t.Fatalf("sequence %d after %v:\n%s", seq, ops, msg)
			}
		}
		// The profiles left behind by Clone are untouched by what was
		// done to their clones.
		for i, c := range clones {
			if msg := profileMatches(c.p, c.m); msg != "" {
				t.Fatalf("sequence %d: the original of clone %d changed: %s", seq, i, msg)
			}
		}
		text, want := shuffledText(r, p)
		got, stats, err := DecodeLenient([]byte(text))
		if err != nil || stats != (ReadStats{}) {
			t.Fatalf("sequence %d: lenient decode of shuffled text: %+v, %v\n%s", seq, stats, err, text)
		}
		if msg := profileMatches(got, want); msg != "" {
			t.Fatalf("sequence %d: lenient decode of shuffled text: %s\n%s", seq, msg, text)
		}
		strict, err := Decode([]byte(text))
		if err != nil || EncodeToString(strict) != EncodeToString(got) {
			t.Fatalf("sequence %d: strict decode of shuffled text differs (%v)", seq, err)
		}
		bin, want := shuffledBinary(r, p)
		if got, stats, err = DecodeLenient(bin); err != nil || stats != (ReadStats{}) {
			t.Fatalf("sequence %d: lenient decode of shuffled binary: %+v, %v", seq, stats, err)
		}
		if msg := profileMatches(got, want); msg != "" {
			t.Fatalf("sequence %d: lenient decode of shuffled binary: %s", seq, msg)
		}
	}
}
