package opt

import (
	"fmt"
	"sort"
)

// flowEffect says what a pass does to profile flow consistency — the
// property inference establishes and the analysis suite's Kirchhoff check
// validates. Checked pipeline mode only runs the flow check while a
// restoring pass's guarantee is still in force.
type flowEffect uint8

const (
	// flowPerturbs: the pass rewrites the CFG or weights without keeping
	// edge flows conserved (inliners, simplifyCFG, unroll, ...).
	flowPerturbs flowEffect = iota
	// flowPreserves: the pass leaves block and edge weights conserved if
	// they already were (layout, splitting, DCE, TCE, cleanup).
	flowPreserves
	// flowRestores: the pass re-establishes flow consistency (inference).
	flowRestores
)

// semContract says what a pass is allowed to do to program semantics — the
// translation validator (Config.ValidateSemantics) picks its proof
// obligation per pass from this registration, the same way checked mode
// picks the flow check from flowEffect.
type semContract uint8

const (
	// semStructural: the pass may delete dead code, reorder blocks, mark
	// sections or rewrite metadata, but every surviving block must keep its
	// I/O behavior — validated by effect-summary equality, CFG bisimulation
	// and the differential oracle (annotate, inference, DCE, TCE, layout,
	// split, cleanup, dead-function dropping).
	semStructural semContract = iota
	// semRestructures: the pass rewrites the CFG wholesale (inliners, ICP,
	// simplifyCFG, LICM, unroll, if-convert) — block-level bisimulation
	// would reject legal rewrites, so effect-growth checks and the
	// differential oracle carry the proof alone.
	semRestructures
)

// passID names a registered optimization pass. Every pass entry point
// registers itself once; pipeline and checked mode refer to passes only
// through their registration, which is what makes violation attribution
// ("pass X broke function Y") possible.
type passID struct {
	name string
	flow flowEffect
	sem  semContract
}

// Name returns the registered pass name.
func (p passID) Name() string { return p.name }

var passRegistry = map[string]passID{}

// registerPass records a pass name at init time. Duplicate names are a
// programming error: attribution would be ambiguous.
func registerPass(name string, fe flowEffect, sc semContract) passID {
	if _, dup := passRegistry[name]; dup {
		panic(fmt.Sprintf("opt: duplicate pass registration %q", name))
	}
	id := passID{name: name, flow: fe, sem: sc}
	passRegistry[name] = id
	return id
}

// PassNames lists every registered pass in sorted order (for documentation
// and CLI help).
func PassNames() []string {
	names := make([]string, 0, len(passRegistry))
	for n := range passRegistry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
