// Package profdata defines the profile representation shared by every PGO
// variant in the reproduction: flat (context-insensitive) function profiles
// as produced by AutoFDO-style profiling, and context-sensitive profiles
// keyed by full calling context as produced by the CSSPGO profiler. It also
// implements the profile text format, merging, cold-context trimming and
// size accounting.
package profdata

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
)

// Kind says how body locations are keyed.
type Kind uint8

// Profile kinds.
const (
	// LineBased keys body counts by (line offset from function start,
	// discriminator) — debug-info correlation (AutoFDO).
	LineBased Kind = iota
	// ProbeBased keys body counts by pseudo-probe ID (CSSPGO).
	ProbeBased
)

func (k Kind) String() string {
	if k == ProbeBased {
		return "probe"
	}
	return "line"
}

// LocKey identifies a profile body location: a probe ID (probe-based) or a
// line offset + discriminator (line-based).
type LocKey struct {
	ID   int32
	Disc int32
}

func (l LocKey) String() string { return string(l.AppendTo(nil)) }

// AppendTo appends the canonical "ID" or "ID.Disc" rendering to dst.
func (l LocKey) AppendTo(dst []byte) []byte {
	dst = strconv.AppendInt(dst, int64(l.ID), 10)
	if l.Disc != 0 {
		dst = append(dst, '.')
		dst = strconv.AppendInt(dst, int64(l.Disc), 10)
	}
	return dst
}

// FunctionProfile is the profile of one function, either context-insensitive
// (Context empty) or for one specific calling context.
type FunctionProfile struct {
	Name    string
	Context Context // empty for base profiles

	// Checksum is the CFG checksum recorded at collection time (probe-based
	// profiles only); annotation rejects the profile when it no longer
	// matches the IR being compiled.
	Checksum uint64

	TotalSamples uint64 // sum of body samples
	HeadSamples  uint64 // entry count (times this context/function was entered)

	Blocks map[LocKey]uint64            // body location -> count
	Calls  map[LocKey]map[string]uint64 // call location -> callee -> count

	// ShouldInline is the pre-inliner's persisted decision that this
	// context should be inlined into its caller (CS profiles only).
	ShouldInline bool

	// Approx marks counts that were transferred from a stale profile by the
	// anchor matcher (or otherwise estimated) rather than measured against
	// this exact CFG; consumers may weight such profiles more cautiously.
	Approx bool
}

// NewFunctionProfile returns an empty profile for name.
func NewFunctionProfile(name string) *FunctionProfile {
	return &FunctionProfile{
		Name:   name,
		Blocks: map[LocKey]uint64{},
		Calls:  map[LocKey]map[string]uint64{},
	}
}

// AddBody accumulates a body sample count at loc.
func (fp *FunctionProfile) AddBody(loc LocKey, n uint64) {
	if n == 0 {
		return
	}
	fp.Blocks[loc] += n
	fp.TotalSamples += n
}

// AddCall accumulates a call-target count at loc.
func (fp *FunctionProfile) AddCall(loc LocKey, callee string, n uint64) {
	if n == 0 {
		return
	}
	m := fp.Calls[loc]
	if m == nil {
		m = map[string]uint64{}
		fp.Calls[loc] = m
	}
	m[callee] += n
}

// BodyAt returns the body count at loc.
func (fp *FunctionProfile) BodyAt(loc LocKey) uint64 { return fp.Blocks[loc] }

// Merge adds src's counts into fp (same function; contexts may differ —
// merging a context profile into a base profile drops the context).
func (fp *FunctionProfile) Merge(src *FunctionProfile) {
	for loc, n := range src.Blocks {
		fp.Blocks[loc] += n
	}
	fp.TotalSamples += src.TotalSamples
	fp.HeadSamples += src.HeadSamples
	for loc, m := range src.Calls {
		for callee, n := range m {
			fp.AddCall(loc, callee, n)
		}
	}
	if fp.Checksum == 0 {
		fp.Checksum = src.Checksum
	}
	fp.Approx = fp.Approx || src.Approx
}

// Scale multiplies every count by num/den (used by profile maintenance when
// slicing or scaling inlined-body profiles).
func (fp *FunctionProfile) Scale(num, den uint64) {
	if den == 0 {
		return
	}
	scale := func(v uint64) uint64 { return v * num / den }
	fp.TotalSamples = 0
	for loc := range fp.Blocks {
		fp.Blocks[loc] = scale(fp.Blocks[loc])
		fp.TotalSamples += fp.Blocks[loc]
	}
	fp.HeadSamples = scale(fp.HeadSamples)
	for _, m := range fp.Calls {
		for callee := range m {
			m[callee] = scale(m[callee])
		}
	}
}

// Clone deep-copies the profile, sizing the copied maps exactly so merge
// paths that clone-then-accumulate do not rehash while filling them.
func (fp *FunctionProfile) Clone() *FunctionProfile {
	out := &FunctionProfile{
		Name:   fp.Name,
		Blocks: make(map[LocKey]uint64, len(fp.Blocks)),
		Calls:  make(map[LocKey]map[string]uint64, len(fp.Calls)),
	}
	out.Context = append(Context(nil), fp.Context...)
	out.Checksum = fp.Checksum
	out.TotalSamples = fp.TotalSamples
	out.HeadSamples = fp.HeadSamples
	out.ShouldInline = fp.ShouldInline
	out.Approx = fp.Approx
	for loc, n := range fp.Blocks {
		out.Blocks[loc] = n
	}
	for loc, m := range fp.Calls {
		nm := make(map[string]uint64, len(m))
		for k, v := range m {
			nm[k] = v
		}
		out.Calls[loc] = nm
	}
	return out
}

// appendSortedLocs appends m's keys to dst in deterministic (ID, Disc)
// order. Encoders pass reused scratch slices to avoid per-record garbage.
func appendSortedLocs[V any](dst []LocKey, m map[LocKey]V) []LocKey {
	for l := range m {
		dst = append(dst, l)
	}
	slices.SortFunc(dst, func(a, b LocKey) int {
		if c := cmp.Compare(a.ID, b.ID); c != 0 {
			return c
		}
		return cmp.Compare(a.Disc, b.Disc)
	})
	return dst
}

// appendSortedKeys appends m's string keys to dst in sorted order.
func appendSortedKeys[V any](dst []string, m map[string]V) []string {
	for k := range m {
		dst = append(dst, k)
	}
	slices.Sort(dst)
	return dst
}

// SortedCallLocs returns call locations in deterministic order.
func (fp *FunctionProfile) SortedCallLocs() []LocKey {
	return appendSortedLocs(make([]LocKey, 0, len(fp.Calls)), fp.Calls)
}

// Profile is a whole-program profile.
type Profile struct {
	Kind Kind
	// CS marks a context-sensitive profile (Contexts populated).
	CS bool
	// Funcs holds base (context-insensitive) profiles by function name.
	Funcs map[string]*FunctionProfile
	// Contexts holds context profiles by canonical context key.
	Contexts map[string]*FunctionProfile

	// keyScratch is reused by ContextProfile to render context keys, so
	// repeated lookups of known contexts allocate nothing. It makes lookup
	// paths non-reentrant, matching the maps above (a Profile has never
	// been safe for concurrent mutation).
	keyScratch []byte
}

// New returns an empty profile.
func New(kind Kind, cs bool) *Profile {
	return &Profile{
		Kind:     kind,
		CS:       cs,
		Funcs:    map[string]*FunctionProfile{},
		Contexts: map[string]*FunctionProfile{},
	}
}

// FuncProfile returns the base profile for name, creating it on demand.
func (p *Profile) FuncProfile(name string) *FunctionProfile {
	fp := p.Funcs[name]
	if fp == nil {
		fp = NewFunctionProfile(name)
		p.Funcs[name] = fp
	}
	return fp
}

// ContextProfile returns the context profile for ctx, creating on demand.
// A context has a caller: for one with fewer than two frames it returns
// the leaf's base profile, so no such context is ever stored.
// Lookups of an already-known context are allocation-free: the key is
// rendered into a reused scratch buffer and the map is probed via a
// non-copying string conversion; the key string is only materialized when
// a new entry must be inserted.
func (p *Profile) ContextProfile(ctx Context) *FunctionProfile {
	if len(ctx) < 2 {
		return p.FuncProfile(ctx.Leaf())
	}
	p.keyScratch = ctx.appendKey(p.keyScratch[:0])
	if fp := p.Contexts[string(p.keyScratch)]; fp != nil {
		return fp
	}
	key := string(p.keyScratch)
	fp := NewFunctionProfile(ctx.Leaf())
	fp.Context = append(Context(nil), ctx...)
	p.Contexts[key] = fp
	return fp
}

// SortedFuncNames returns base profile names sorted.
func (p *Profile) SortedFuncNames() []string {
	return appendSortedKeys(make([]string, 0, len(p.Funcs)), p.Funcs)
}

// SortedContextKeys returns context keys sorted.
func (p *Profile) SortedContextKeys() []string {
	return appendSortedKeys(make([]string, 0, len(p.Contexts)), p.Contexts)
}

// TotalSamples sums all body samples in the profile.
func (p *Profile) TotalSamples() uint64 {
	var t uint64
	for _, fp := range p.Funcs {
		t += fp.TotalSamples
	}
	for _, fp := range p.Contexts {
		t += fp.TotalSamples
	}
	return t
}

// String summarizes the profile.
func (p *Profile) String() string {
	return fmt.Sprintf("profile{kind=%s cs=%v funcs=%d contexts=%d samples=%d}",
		p.Kind, p.CS, len(p.Funcs), len(p.Contexts), p.TotalSamples())
}
