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

// ReadProg deserializes a binary. It rejects one saved with another
// instruction layout, one with an instruction of unknown kind or whose
// arguments lie outside the argument slab, and one whose text spans more
// addresses than the lookup tables cover.
func ReadProg(r io.Reader) (*Prog, error) {
	p := new(Prog)
	if err := gob.NewDecoder(r).Decode(p); err != nil {
		return nil, err
	}
	if p.Layout != InstrLayout {
		return nil, fmt.Errorf("machine: binary has instruction layout %d, this build reads layout %d; rebuild the binary", p.Layout, InstrLayout)
	}
	for i := range p.Instrs {
		in := &p.Instrs[i]
		if int(in.Kind) >= len(kindSizes) {
			return nil, fmt.Errorf("machine: instruction %d has unknown kind %d", i, in.Kind)
		}
		if in.ArgStart < 0 || in.ArgCount < 0 || int64(in.ArgStart)+int64(in.ArgCount) > int64(len(p.ArgRegs)) {
			return nil, fmt.Errorf("machine: instruction %d names arguments [%d, +%d) outside the %d-register argument slab",
				i, in.ArgStart, in.ArgCount, len(p.ArgRegs))
		}
	}
	if span := p.textSpan(); span > maxDenseSpan {
		return nil, fmt.Errorf("machine: text spans %d bytes, more than the %d a binary may", span, maxDenseSpan)
	}
	return p, nil
}
