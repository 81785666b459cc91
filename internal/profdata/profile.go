// Package profdata defines the profile representation shared by every PGO
// variant in the reproduction: flat (context-insensitive) function profiles
// as produced by AutoFDO-style profiling, and context-sensitive profiles
// keyed by full calling context as produced by the CSSPGO profiler. It also
// implements the profile text format, merging, cold-context trimming and
// size accounting.
package profdata

import (
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

	// Blocks holds one record per body location, in (ID, Disc) order.
	// Calls holds one record per (call location, callee), in location
	// order and callees by name within a location. An empty list is nil.
	// Only this package's methods write them (AddBody, AddCall, Merge,
	// Scale, MapCounts, Clone, the decoders); readers range over them or
	// use BodyAt, FindBody and CallsAt.
	Blocks []BodyCount
	Calls  []CallCount

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
	return &FunctionProfile{Name: name}
}

// AddBody accumulates a body sample count at loc.
func (fp *FunctionProfile) AddBody(loc LocKey, n uint64) {
	if n == 0 {
		return
	}
	fp.Blocks = addRecord(fp.Blocks, BodyCount{Loc: loc, N: n})
	fp.TotalSamples += n
}

// AddCall accumulates a call-target count at loc.
func (fp *FunctionProfile) AddCall(loc LocKey, callee string, n uint64) {
	if n == 0 {
		return
	}
	fp.Calls = addRecord(fp.Calls, CallCount{Loc: loc, Callee: callee, N: n})
}

// BodyAt returns the body count at loc.
func (fp *FunctionProfile) BodyAt(loc LocKey) uint64 {
	n, _ := fp.FindBody(loc)
	return n
}

// FindBody returns the body count at loc and whether fp has a record
// there (a zero-valued one too).
func (fp *FunctionProfile) FindBody(loc LocKey) (uint64, bool) {
	i, ok := slices.BinarySearchFunc(fp.Blocks, loc, func(b BodyCount, l LocKey) int { return b.Loc.compare(l) })
	if !ok {
		return 0, false
	}
	return fp.Blocks[i].N, true
}

// CallsAt returns the call records at loc, callees by name: a sub-slice of
// Calls, empty when loc has none.
func (fp *FunctionProfile) CallsAt(loc LocKey) []CallCount {
	lo, _ := slices.BinarySearchFunc(fp.Calls, loc, func(c CallCount, l LocKey) int { return c.Loc.compare(l) })
	hi := lo
	for hi < len(fp.Calls) && fp.Calls[hi].Loc == loc {
		hi++
	}
	return fp.Calls[lo:hi]
}

// Merge adds src's counts into fp (same function; contexts may differ —
// merging a context profile into a base profile drops the context). Every
// body record of src reaches fp, a zero-valued one too; a zero-valued call
// record does not, as AddCall ignores a zero count.
func (fp *FunctionProfile) Merge(src *FunctionProfile) {
	fp.Blocks = mergeRecords(fp.Blocks, src.Blocks, true)
	fp.TotalSamples += src.TotalSamples
	fp.HeadSamples += src.HeadSamples
	fp.Calls = mergeRecords(fp.Calls, src.Calls, false)
	if fp.Checksum == 0 {
		fp.Checksum = src.Checksum
	}
	fp.Approx = fp.Approx || src.Approx
}

// Scale multiplies every count by num/den (used by profile maintenance when
// slicing or scaling inlined-body profiles). Records scaled to zero stay.
func (fp *FunctionProfile) Scale(num, den uint64) {
	if den == 0 {
		return
	}
	fp.MapCounts(func(v uint64) uint64 { return v * num / den })
	fp.HeadSamples = fp.HeadSamples * num / den
}

// MapCounts replaces every body and call count v with f(v), keeping every
// record (one mapped to zero too) and TotalSamples the sum of the body
// counts. HeadSamples is the caller's to set.
func (fp *FunctionProfile) MapCounts(f func(uint64) uint64) {
	fp.TotalSamples = 0
	for i := range fp.Blocks {
		fp.Blocks[i].N = f(fp.Blocks[i].N)
		fp.TotalSamples += fp.Blocks[i].N
	}
	for i := range fp.Calls {
		fp.Calls[i].N = f(fp.Calls[i].N)
	}
}

// Clone deep-copies the profile.
func (fp *FunctionProfile) Clone() *FunctionProfile {
	out := *fp
	out.Context = append(Context(nil), fp.Context...)
	out.Blocks = slices.Clone(fp.Blocks)
	out.Calls = slices.Clone(fp.Calls)
	return &out
}

// appendSortedKeys appends m's string keys to dst in sorted order.
func appendSortedKeys[V any](dst []string, m map[string]V) []string {
	for k := range m {
		dst = append(dst, k)
	}
	slices.Sort(dst)
	return dst
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
	return p.contextProfile(ctx, false)
}

// contextProfile is ContextProfile. A new profile keeps a copy of ctx, or,
// with adopt set, ctx itself: the decoders give up the context they parsed.
func (p *Profile) contextProfile(ctx Context, adopt bool) *FunctionProfile {
	if len(ctx) < 2 {
		return p.FuncProfile(ctx.Leaf())
	}
	p.keyScratch = ctx.appendKey(p.keyScratch[:0])
	if fp := p.Contexts[string(p.keyScratch)]; fp != nil {
		return fp
	}
	key := string(p.keyScratch)
	if !adopt {
		ctx = append(Context(nil), ctx...)
	}
	fp := NewFunctionProfile(ctx.Leaf())
	fp.Context = ctx
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
