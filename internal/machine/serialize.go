package machine

import (
	"encoding/gob"
	"fmt"
	"io"
)

// Save serializes the binary with gob (the reproduction's "object file
// format"). The lookup tables are not saved: they are built on first use.
func (p *Prog) Save(w io.Writer) error {
	return gob.NewEncoder(w).Encode(p)
}

// ReadProg deserializes a binary. It rejects one whose text spans more
// addresses than the lookup tables cover.
func ReadProg(r io.Reader) (*Prog, error) {
	p := new(Prog)
	if err := gob.NewDecoder(r).Decode(p); err != nil {
		return nil, err
	}
	if span := p.textSpan(); span > maxDenseSpan {
		return nil, fmt.Errorf("machine: text spans %d bytes, more than the %d a binary may", span, maxDenseSpan)
	}
	return p, nil
}
