package drift

import (
	"bytes"
	"fmt"
)

// Corruption is one profile-artifact fault class.
type Corruption uint8

// Corruption kinds.
const (
	// TruncateTail keeps only a prefix of the file — a profile cut short by
	// a crashed writer or a partial transfer.
	TruncateTail Corruption = iota
	// FlipBits flips random bits past the header — storage rot.
	FlipBits
	// dropRecord removes one whole function/context record (text format) or
	// a byte window (binary, which has no record framing to splice at).
	dropRecord
	// dupRecord duplicates one record (text) or a byte window (binary) — a
	// botched shard merge.
	dupRecord
)

// AllCorruptions returns every corruption kind, in declaration order.
func AllCorruptions() []Corruption {
	return []Corruption{TruncateTail, FlipBits, dropRecord, dupRecord}
}

func (c Corruption) String() string {
	switch c {
	case TruncateTail:
		return "truncate-tail"
	case FlipBits:
		return "flip-bits"
	case dropRecord:
		return "drop-record"
	case dupRecord:
		return "dup-record"
	default:
		return fmt.Sprintf("corruption(%d)", uint8(c))
	}
}

// Corrupt returns a damaged copy of an encoded profile (text or binary —
// detected by the CSPF magic). The input is never modified, and the output
// is deterministic in the seed.
func Corrupt(data []byte, c Corruption, seed uint64) []byte {
	out := append([]byte(nil), data...)
	if len(out) == 0 {
		return out
	}
	r := &rng{s: seed ^ uint64(c)<<48}
	binary := bytes.HasPrefix(out, []byte("CSPF"))
	switch c {
	case TruncateTail:
		keep := len(out) * 2 / 3
		if keep < 1 {
			keep = 1
		}
		out = out[:keep]
	case FlipBits:
		// Spare the first bytes so the format stays detectable: the fault
		// under test is damaged records, not a missing header.
		lo := 16
		if lo >= len(out) {
			lo = len(out) / 2
		}
		for i := 0; i < 8 && lo < len(out); i++ {
			pos := lo + r.intn(len(out)-lo)
			out[pos] ^= byte(1 << r.intn(8))
		}
	case dropRecord:
		if binary {
			out = dropWindow(out, r)
		} else {
			out = editTextSection(out, r, func(section []byte) []byte { return nil })
		}
	case dupRecord:
		if binary {
			out = dupWindow(out, r)
		} else {
			out = editTextSection(out, r, func(section []byte) []byte {
				return append(append([]byte(nil), section...), section...)
			})
		}
	}
	return out
}

// editTextSection applies edit to one randomly chosen section (a "[...]"
// header plus its following data lines) of a text profile. A comment line,
// such as the closing "# end", ends a section too, so it is never edited.
func editTextSection(data []byte, r *rng, edit func([]byte) []byte) []byte {
	lines := bytes.SplitAfter(data, []byte("\n"))
	var starts, bounds []int
	for i, ln := range lines {
		switch ln = bytes.TrimSpace(ln); {
		case bytes.HasPrefix(ln, []byte("[")):
			starts = append(starts, i)
			bounds = append(bounds, i)
		case bytes.HasPrefix(ln, []byte("#")):
			bounds = append(bounds, i)
		}
	}
	if len(starts) == 0 {
		return data
	}
	begin := starts[r.intn(len(starts))]
	end := len(lines)
	for _, b := range bounds {
		if b > begin {
			end = b
			break
		}
	}
	var section []byte
	for _, ln := range lines[begin:end] {
		section = append(section, ln...)
	}
	var out []byte
	for _, ln := range lines[:begin] {
		out = append(out, ln...)
	}
	out = append(out, edit(section)...)
	for _, ln := range lines[end:] {
		out = append(out, ln...)
	}
	return out
}

// dropWindow deletes a 16-byte window from the record area.
func dropWindow(data []byte, r *rng) []byte {
	const w = 16
	if len(data) <= 8+w {
		return data[:len(data)/2]
	}
	pos := 8 + r.intn(len(data)-8-w)
	return append(data[:pos:pos], data[pos+w:]...)
}

// dupWindow doubles a 16-byte window in the record area.
func dupWindow(data []byte, r *rng) []byte {
	const w = 16
	if len(data) <= 8+w {
		return append(append([]byte(nil), data...), data...)
	}
	pos := 8 + r.intn(len(data)-8-w)
	out := append([]byte(nil), data[:pos+w]...)
	out = append(out, data[pos:pos+w]...)
	return append(out, data[pos+w:]...)
}
