package profdata

import "strings"

// interner deduplicates strings so that the many repeated function, callee
// and context-frame names flowing through profile decode/merge paths share
// one backing allocation instead of one per occurrence. It is not safe for
// concurrent use; give each decoder or worker its own.
type interner struct {
	m map[string]string
}

// newInterner returns an empty interner.
func newInterner() *interner { return &interner{m: map[string]string{}} }

// intern returns the canonical copy of s, storing a copy of s on first
// sight: s may be a substring of a much larger input, which the interned
// name must not keep alive.
func (in *interner) intern(s string) string {
	if v, ok := in.m[s]; ok {
		return v
	}
	s = strings.Clone(s)
	in.m[s] = s
	return s
}
