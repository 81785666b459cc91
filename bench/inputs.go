package main

import (
	"fmt"
	"hash/fnv"

	"csspgo/internal/source"
	"csspgo/internal/workloads"
)

// The bench generates every request stream itself, from -seed, with its own
// generator: the streams built into internal/workloads are fixed, and the
// xorshift generators elsewhere in the repo belong to the code under test.

// splitmix64 is the bench's only source of randomness.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// argBound is the per-program bound on request arguments: inside it no
// program overflows, divides by zero or indexes out of range, so no
// operation of any workload fails.
var argBound = map[string]int64{
	"adranker":    3000,
	"adfinder":    10000,
	"adretriever": 50000,
	"dispatcher":  50000,
	"hhvm":        100000,
	"haas":        100000,
	"clangish":    100000,
}

// serverPrograms are the five server programs of the paper's evaluation;
// allPrograms adds the client program and the indirect-dispatch program.
var (
	serverPrograms = workloads.ServerNames()
	allPrograms    = append(append([]string{}, serverPrograms...), "clangish", "dispatcher")
)

// evalSeedOffset separates the held-out eval stream from the training
// stream of the same run.
const evalSeedOffset = 7919

// evalRequests is the length of every eval stream.
const evalRequests = 200

// stream returns n two-argument requests for the program. The program name
// is mixed into the seed so that programs sharing a bound still see
// different streams.
func stream(program string, seed uint64, n int) [][]int64 {
	h := fnv.New64a()
	h.Write([]byte(program))
	r := splitmix64(seed ^ h.Sum64())
	bound := uint64(argBound[program])
	out := make([][]int64, n)
	for i := range out {
		out[i] = []int64{int64(r.next() % bound), int64(r.next() % bound)}
	}
	return out
}

// loadProgram returns the parsed modules of one evaluation program. Only
// the files are used; the request streams that come with them are ignored.
func loadProgram(name string) ([]*source.File, error) {
	if _, ok := argBound[name]; !ok {
		return nil, fmt.Errorf("bench: no argument bound for program %q", name)
	}
	w, err := workloads.Load(name, 1)
	if err != nil {
		return nil, err
	}
	return w.Files, nil
}
