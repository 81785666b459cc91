package profdata

import (
	"cmp"
	"slices"
)

// This file holds the layout of a function profile's counts: flat lists of
// records, kept sorted by key with one record per key (DESIGN.md "Profile
// records"), and the operations on such lists the profile's methods and
// the decoders share.

// compare orders locations by (ID, Disc).
func (l LocKey) compare(o LocKey) int {
	if c := cmp.Compare(l.ID, o.ID); c != 0 {
		return c
	}
	return cmp.Compare(l.Disc, o.Disc)
}

// BodyCount is the sample count at one body location.
type BodyCount struct {
	Loc LocKey
	N   uint64
}

// CallCount is the count of calls from one location to one callee.
type CallCount struct {
	Loc    LocKey
	Callee string
	N      uint64
}

func (b BodyCount) compare(o BodyCount) int      { return b.Loc.compare(o.Loc) }
func (b BodyCount) count() uint64                { return b.N }
func (b BodyCount) withCount(n uint64) BodyCount { b.N = n; return b }

func (c CallCount) compare(o CallCount) int {
	if d := c.Loc.compare(o.Loc); d != 0 {
		return d
	}
	return cmp.Compare(c.Callee, o.Callee)
}
func (c CallCount) count() uint64                { return c.N }
func (c CallCount) withCount(n uint64) CallCount { c.N = n; return c }

// record is a body or call count: a key that orders records, and a count.
type record[T any] interface {
	BodyCount | CallCount
	compare(T) int
	count() uint64
	withCount(uint64) T
}

// addRecord adds r into the sorted, unique list recs: into the record with
// r's key, or as a new record in key order. A key above the last one's
// appends without a search.
func addRecord[T record[T]](recs []T, r T) []T {
	i := len(recs)
	if i > 0 && recs[i-1].compare(r) >= 0 {
		var found bool
		if i, found = slices.BinarySearchFunc(recs, r, T.compare); found {
			recs[i] = recs[i].withCount(recs[i].count() + r.count())
			return recs
		}
	}
	return slices.Insert(recs, i, r)
}

// mergeRecords adds the sorted, unique list src into dst, sorted and
// unique too, and returns the result. A zero-valued record of src is only
// carried when keepZero is set. dst grows once, by the number of keys it
// lacks, and is filled from the back, so no record moves twice.
func mergeRecords[T record[T]](dst, src []T, keepZero bool) []T {
	fresh := 0
	for i, j := 0, 0; j < len(src); j++ {
		if !keepZero && src[j].count() == 0 {
			continue
		}
		for i < len(dst) && dst[i].compare(src[j]) < 0 {
			i++
		}
		if i < len(dst) && dst[i].compare(src[j]) == 0 {
			dst[i] = dst[i].withCount(dst[i].count() + src[j].count())
		} else {
			fresh++
		}
	}
	if fresh == 0 {
		return dst
	}
	n := len(dst)
	dst = slices.Grow(dst, fresh)[:n+fresh]
	// Back to front: k is the slot being written, i the last unplaced
	// record of the old dst, j of src. src's matched keys were summed above.
	i, k := n-1, n+fresh-1
	for j := len(src) - 1; j >= 0 && k > i; j-- {
		if !keepZero && src[j].count() == 0 {
			continue
		}
		for i >= 0 && dst[i].compare(src[j]) > 0 {
			dst[k] = dst[i]
			i, k = i-1, k-1
		}
		if i >= 0 && dst[i].compare(src[j]) == 0 {
			continue
		}
		dst[k] = src[j]
		k--
	}
	return dst
}

// normalize sorts and folds records read in stream order: a decoder
// appends them as they come, and only input that is out of order or
// repeats a key reaches the sort. Equal keys fold in stream order, and a
// record whose count would wrap its key's sum is dropped, as a decoder
// adding it then would have; normalize returns how many were. An empty
// result is nil.
func normalize[T record[T]](recs []T) ([]T, int) {
	if len(recs) == 0 {
		return nil, 0
	}
	if sortedUnique(recs) {
		return recs, 0
	}
	slices.SortStableFunc(recs, T.compare)
	out, dropped := recs[:1], 0
	for _, r := range recs[1:] {
		last := len(out) - 1
		switch {
		case out[last].compare(r) != 0:
			out = append(out, r)
		case addOverflows(out[last].count(), r.count()):
			dropped++
		default:
			out[last] = r.withCount(out[last].count() + r.count())
		}
	}
	clear(recs[len(out):])
	return out, dropped
}

// sortedUnique reports whether every record's key is greater than the one
// before it.
func sortedUnique[T record[T]](recs []T) bool {
	for i := 1; i < len(recs); i++ {
		if recs[i-1].compare(recs[i]) >= 0 {
			return false
		}
	}
	return true
}

// normalize restores every function profile's record invariants after a
// decoder appended records in stream order, and returns the number of call
// records dropped because their count would have wrapped their key's sum.
// Body records cannot wrap: every one is part of TotalSamples, which the
// decoders keep from wrapping.
func (p *Profile) normalize() (dropped int) {
	for _, fps := range []map[string]*FunctionProfile{p.Funcs, p.Contexts} {
		for _, fp := range fps {
			var n int
			fp.Blocks, _ = normalize(fp.Blocks)
			fp.Calls, n = normalize(fp.Calls)
			dropped += n
		}
	}
	return dropped
}
