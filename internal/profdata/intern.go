package profdata

// Interner deduplicates strings so that the many repeated function, callee
// and context-frame names flowing through profile decode/merge paths share
// one backing allocation instead of one per occurrence. It is not safe for
// concurrent use; give each decoder or worker its own.
type Interner struct {
	m map[string]string
}

// NewInterner returns an empty interner.
func NewInterner() *Interner { return &Interner{m: map[string]string{}} }

// Intern returns the canonical copy of s, storing s itself on first sight.
func (in *Interner) Intern(s string) string {
	if v, ok := in.m[s]; ok {
		return v
	}
	in.m[s] = s
	return s
}

// Len reports how many distinct strings have been interned.
func (in *Interner) Len() int { return len(in.m) }
