package profdata

import (
	"fmt"
	"strings"
	"unicode"
)

// ContextFrame is one frame of a calling context. For every frame except
// the leaf, Site is the call location (probe ID or line offset) within Func
// that leads to the next (inner) frame.
type ContextFrame struct {
	Func string
	Site LocKey
}

// Context is a calling context, outermost frame first, leaf last. The leaf
// frame's Site is ignored. An empty Context denotes "no context" (a base,
// context-insensitive profile).
type Context []ContextFrame

// NewContext builds a context from alternating func/site pairs plus the
// leaf function: NewContext("main", 2, "foo", 5, "bar") is
// "main:2 @ foo:5 @ bar".
func NewContext(args ...interface{}) Context {
	var ctx Context
	for i := 0; i < len(args); {
		fn := args[i].(string)
		i++
		if i < len(args) {
			if site, ok := args[i].(int); ok {
				ctx = append(ctx, ContextFrame{Func: fn, Site: LocKey{ID: int32(site)}})
				i++
				continue
			}
		}
		ctx = append(ctx, ContextFrame{Func: fn})
	}
	return ctx
}

// Leaf returns the innermost function name ("" for an empty context).
func (c Context) Leaf() string {
	if len(c) == 0 {
		return ""
	}
	return c[len(c)-1].Func
}

// Key renders the canonical key: "main:2 @ foo:5 @ bar".
func (c Context) Key() string { return string(c.appendKey(nil)) }

// appendKey appends the canonical key to dst and returns the extended
// slice. Hot paths use it with a reused scratch buffer to build keys
// without allocating.
func (c Context) appendKey(dst []byte) []byte {
	for i, f := range c {
		if i > 0 {
			dst = append(dst, " @ "...)
		}
		dst = append(dst, f.Func...)
		if i != len(c)-1 {
			dst = append(dst, ':')
			dst = f.Site.AppendTo(dst)
		}
	}
	return dst
}

// Parent returns the context with the leaf frame removed (the caller's
// context). Returns nil for contexts of length <= 1.
func (c Context) Parent() Context {
	if len(c) <= 1 {
		return nil
	}
	out := make(Context, len(c)-1)
	copy(out, c[:len(c)-1])
	out[len(out)-1].Site = LocKey{} // parent's leaf site is cleared
	return out
}

// Depth returns the number of frames.
func (c Context) Depth() int { return len(c) }

// Equal reports frame-wise equality.
func (c Context) Equal(o Context) bool {
	if len(c) != len(o) {
		return false
	}
	for i := range c {
		if c[i].Func != o[i].Func {
			return false
		}
		if i != len(c)-1 && c[i].Site != o[i].Site {
			return false
		}
	}
	return true
}

// maxContextDepth bounds the frames of a decoded context, in either
// encoding.
const maxContextDepth = 1024

// maxNameLen bounds a decoded function name, in either encoding.
const maxNameLen = 1 << 20

// checkName is the one name check both decoders apply: a name must be one
// the text format can carry back unchanged, so it is non-empty, bounded,
// and free of whitespace (the field separator), ':' (the call-site
// separator) and '@' (the frame separator).
func checkName(s string) error {
	if s == "" || len(s) > maxNameLen || strings.ContainsAny(s, ":@") || strings.IndexFunc(s, unicode.IsSpace) >= 0 {
		return fmt.Errorf("malformed function name %q", s)
	}
	return nil
}

// ParseContext parses a canonical context key produced by Key. A key
// without a call site parses as a one-frame context: a base profile's name.
func ParseContext(s string) (Context, error) {
	s = strings.TrimSpace(s)
	// The frames are counted and checked before anything is allocated, then
	// cut off the key one by one: the Context is the only allocation.
	n := strings.Count(s, " @ ") + 1
	if n > maxContextDepth {
		return nil, fmt.Errorf("context of %d frames is deeper than %d", n, maxContextDepth)
	}
	ctx := make(Context, n)
	rest := s
	for i := range ctx {
		var part string
		part, rest, _ = strings.Cut(rest, " @ ")
		fn := strings.TrimSpace(part)
		if i != n-1 {
			// Every frame but the leaf carries its call site.
			colon := strings.LastIndexByte(fn, ':')
			if colon < 0 {
				return nil, fmt.Errorf("frame %q missing call site in context %q", part, s)
			}
			site, err := parseLocKey(fn[colon+1:])
			if err != nil {
				return nil, fmt.Errorf("bad site in %q: %v", part, err)
			}
			fn, ctx[i].Site = fn[:colon], site
		}
		if err := checkName(fn); err != nil {
			return nil, fmt.Errorf("context %q: %v", s, err)
		}
		ctx[i].Func = fn
	}
	return ctx, nil
}
