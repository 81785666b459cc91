// Package drift is the fault-injection half of the stale-profile work: it
// manufactures the failure modes the degradation ladder must survive, and
// is the one place that knows what a source edit between profiling and
// compiling looks like. Source mutations model a developer editing code
// (the profile goes stale); ShiftLines is the comment-only edit that moves
// lines and nothing else; profile corruptions (corrupt.go) model damaged
// profile artifacts. Mutations are deterministic in their seed.
// Most preserve semantics exactly; deleteStmts may not (removed calls can
// have effects), but every variant the harness compares — baseline, fresh
// profile, stale profile — builds and runs the *same* mutated program, so
// the comparison stays apples-to-apples either way.
package drift

import (
	"fmt"

	"csspgo/internal/source"
)

// Mutation is one source-edit fault class.
type Mutation uint8

// Mutation kinds.
const (
	// InsertStmts inserts dead `if (0) { var __driftN = 1; }` guards into
	// function bodies: extra blocks and edges, no runtime effect.
	InsertStmts Mutation = iota
	// deleteStmts deletes call-for-effect statements (`f(x);`), removing
	// call sites and their probes.
	deleteStmts
	// AddBranches wraps a leaf statement in `if (1) { ... }`: a new branch
	// that always executes, preserving semantics while reshaping the CFG.
	AddBranches
	// RemoveBranches unwraps else-less `if` statements, splicing their body
	// into the parent block (only when provably scope- and loop-safe).
	RemoveBranches
	// ReorderFuncs reverses the function definition order. CFGs and
	// checksums are untouched — this probes the exact-match path's
	// robustness to layout churn, not the matcher.
	ReorderFuncs
)

// All returns every mutation kind, in declaration order.
func All() []Mutation {
	return []Mutation{InsertStmts, deleteStmts, AddBranches, RemoveBranches, ReorderFuncs}
}

func (m Mutation) String() string {
	switch m {
	case InsertStmts:
		return "insert-stmts"
	case deleteStmts:
		return "delete-stmts"
	case AddBranches:
		return "add-branches"
	case RemoveBranches:
		return "remove-branches"
	case ReorderFuncs:
		return "reorder-funcs"
	default:
		return fmt.Sprintf("mutation(%d)", uint8(m))
	}
}

// rng is a splitmix64 generator: tiny, deterministic, seed-stable across
// platforms.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.next() % uint64(n))
}

// Apply returns a deep-copied file set with the mutation applied. The input
// files are never modified. main is left untouched by body mutations so the
// harness's entry point stays comparable.
func Apply(files []*source.File, m Mutation, seed uint64) []*source.File {
	out := make([]*source.File, len(files))
	for i, f := range files {
		out[i] = cloneFile(f)
	}
	r := &rng{s: seed ^ uint64(m)<<56}
	mut := &mutator{r: r, kind: m}
	for _, f := range out {
		if m == ReorderFuncs {
			for i, j := 0, len(f.Funcs)-1; i < j; i, j = i+1, j-1 {
				f.Funcs[i], f.Funcs[j] = f.Funcs[j], f.Funcs[i]
			}
			continue
		}
		for _, fn := range f.Funcs {
			if fn.Name == "main" {
				continue
			}
			mut.mutateFunc(fn)
		}
	}
	return out
}

type mutator struct {
	r       *rng
	kind    Mutation
	inserts int // unique suffix for inserted var names
}

func (m *mutator) mutateFunc(fn *source.FuncDecl) {
	switch m.kind {
	case InsertStmts:
		m.insertDeadGuard(fn.Body)
	case deleteStmts:
		m.deleteOneCallStmt(fn.Body)
	case AddBranches:
		m.wrapOneLeafStmt(fn.Body)
	case RemoveBranches:
		m.unwrapOneIf(fn.Body)
	}
}

// insertDeadGuard drops an `if (0) { var __driftN = 1; }` at a random
// position of the top-level body (before any trailing return, so the new
// blocks stay reachable and CFG-relevant).
func (m *mutator) insertDeadGuard(body *source.BlockStmt) {
	limit := len(body.Stmts)
	if limit > 0 {
		if _, ret := body.Stmts[limit-1].(*source.ReturnStmt); ret {
			limit--
		}
	}
	pos := m.r.intn(limit + 1)
	line := body.Line
	m.inserts++
	guard := &source.IfStmt{
		Cond: &source.NumExpr{Val: 0, Line: line},
		Then: &source.BlockStmt{Line: line, Stmts: []source.Stmt{
			&source.VarStmt{
				Name: fmt.Sprintf("__drift%d", m.inserts),
				Init: &source.NumExpr{Val: 1, Line: line},
				Line: line,
			},
		}},
		Line: line,
	}
	body.Stmts = append(body.Stmts[:pos], append([]source.Stmt{guard}, body.Stmts[pos:]...)...)
}

// deleteOneCallStmt removes one call-for-effect statement. Only ExprStmts
// whose expression is a call are candidates: they bind no names and produce
// no value, so removal cannot break lowering (it may change behavior through
// global stores inside the callee — acceptable, since every variant the
// harness compares runs the same mutated program).
func (m *mutator) deleteOneCallStmt(body *source.BlockStmt) {
	var sites []*source.BlockStmt
	var idxs []int
	forEachBlock(body, func(b *source.BlockStmt) {
		for i, s := range b.Stmts {
			if es, ok := s.(*source.ExprStmt); ok {
				switch es.X.(type) {
				case *source.CallExpr, *source.IndirectCallExpr:
					sites = append(sites, b)
					idxs = append(idxs, i)
				}
			}
		}
	})
	if len(sites) == 0 {
		return
	}
	k := m.r.intn(len(sites))
	b, i := sites[k], idxs[k]
	b.Stmts = append(b.Stmts[:i], b.Stmts[i+1:]...)
}

// wrapOneLeafStmt wraps one assignment/store/call statement in `if (1)`:
// the statement still always runs, but the CFG gains a branch and a join.
func (m *mutator) wrapOneLeafStmt(body *source.BlockStmt) {
	var sites []*source.BlockStmt
	var idxs []int
	forEachBlock(body, func(b *source.BlockStmt) {
		for i, s := range b.Stmts {
			switch s.(type) {
			case *source.AssignStmt, *source.StoreStmt, *source.ExprStmt:
				sites = append(sites, b)
				idxs = append(idxs, i)
			}
		}
	})
	if len(sites) == 0 {
		return
	}
	k := m.r.intn(len(sites))
	b, i := sites[k], idxs[k]
	inner := b.Stmts[i]
	line := inner.Pos()
	b.Stmts[i] = &source.IfStmt{
		Cond: &source.NumExpr{Val: 1, Line: line},
		Then: &source.BlockStmt{Line: line, Stmts: []source.Stmt{inner}},
		Line: line,
	}
}

// unwrapOneIf splices one else-less if's body into its parent. Bodies
// containing declarations are skipped (splicing could collide names or leak
// them into the parent scope); continues/breaks are position-sensitive but
// stay legal since the statement keeps its loop nesting.
func (m *mutator) unwrapOneIf(body *source.BlockStmt) {
	var sites []*source.BlockStmt
	var idxs []int
	forEachBlock(body, func(b *source.BlockStmt) {
		for i, s := range b.Stmts {
			ifs, ok := s.(*source.IfStmt)
			if !ok || ifs.Else != nil {
				continue
			}
			if blockDeclares(ifs.Then) {
				continue
			}
			sites = append(sites, b)
			idxs = append(idxs, i)
		}
	})
	if len(sites) == 0 {
		return
	}
	k := m.r.intn(len(sites))
	b, i := sites[k], idxs[k]
	ifs := b.Stmts[i].(*source.IfStmt)
	spliced := make([]source.Stmt, 0, len(b.Stmts)-1+len(ifs.Then.Stmts))
	spliced = append(spliced, b.Stmts[:i]...)
	spliced = append(spliced, ifs.Then.Stmts...)
	spliced = append(spliced, b.Stmts[i+1:]...)
	b.Stmts = spliced
}

// blockDeclares reports whether the subtree declares any local.
func blockDeclares(b *source.BlockStmt) bool {
	found := false
	forEachBlock(b, func(inner *source.BlockStmt) {
		for _, s := range inner.Stmts {
			if _, ok := s.(*source.VarStmt); ok {
				found = true
			}
		}
	})
	// ForStmt inits declare too.
	forEachBlock(b, func(inner *source.BlockStmt) {
		for _, s := range inner.Stmts {
			if fs, ok := s.(*source.ForStmt); ok {
				if _, ok := fs.Init.(*source.VarStmt); ok {
					found = true
				}
			}
		}
	})
	return found
}

// forEachBlock visits every block in a statement subtree, outermost first.
func forEachBlock(b *source.BlockStmt, visit func(*source.BlockStmt)) {
	if b == nil {
		return
	}
	visit(b)
	for _, s := range b.Stmts {
		switch s := s.(type) {
		case *source.BlockStmt:
			forEachBlock(s, visit)
		case *source.IfStmt:
			forEachBlock(s.Then, visit)
			if es, ok := s.Else.(*source.BlockStmt); ok {
				forEachBlock(es, visit)
			} else if ei, ok := s.Else.(*source.IfStmt); ok {
				forEachBlock(&source.BlockStmt{Stmts: []source.Stmt{ei}, Line: ei.Line}, visit)
			}
		case *source.WhileStmt:
			forEachBlock(s.Body, visit)
		case *source.ForStmt:
			forEachBlock(s.Body, visit)
		case *source.SwitchStmt:
			for _, cb := range s.Bodies {
				forEachBlock(cb, visit)
			}
			forEachBlock(s.Default, visit)
		}
	}
}

// ShiftLines returns a deep copy of files in which every statement below a
// function's header line sits delta lines lower, as if a delta-line comment
// had been added right under each signature. The headers, the expressions
// and the CFGs (so probe IDs and checksums) are untouched: only a profile
// keyed by line offset goes stale. It is not a Mutation: All feeds the drift
// matrix, whose cells must not move.
func ShiftLines(files []*source.File, delta int) []*source.File {
	out := make([]*source.File, len(files))
	for i, f := range files {
		out[i] = cloneFile(f)
		for _, fn := range out[i].Funcs {
			forEachStmt(fn.Body, func(s source.Stmt) {
				if line := stmtLine(s); *line > fn.Line {
					*line += delta
				}
			})
		}
	}
	return out
}

// forEachStmt visits s and every statement nested in it, for-loop init and
// post statements and else chains included, outermost first.
func forEachStmt(s source.Stmt, visit func(source.Stmt)) {
	visit(s)
	switch s := s.(type) {
	case *source.BlockStmt:
		for _, sub := range s.Stmts {
			forEachStmt(sub, visit)
		}
	case *source.IfStmt:
		forEachStmt(s.Then, visit)
		if s.Else != nil {
			forEachStmt(s.Else, visit)
		}
	case *source.WhileStmt:
		forEachStmt(s.Body, visit)
	case *source.ForStmt:
		if s.Init != nil {
			forEachStmt(s.Init, visit)
		}
		if s.Post != nil {
			forEachStmt(s.Post, visit)
		}
		forEachStmt(s.Body, visit)
	case *source.SwitchStmt:
		for _, cb := range s.Bodies {
			forEachStmt(cb, visit)
		}
		if s.Default != nil {
			forEachStmt(s.Default, visit)
		}
	}
}

// stmtLine addresses a statement's own line number.
func stmtLine(s source.Stmt) *int {
	switch s := s.(type) {
	case *source.BlockStmt:
		return &s.Line
	case *source.VarStmt:
		return &s.Line
	case *source.AssignStmt:
		return &s.Line
	case *source.StoreStmt:
		return &s.Line
	case *source.IfStmt:
		return &s.Line
	case *source.WhileStmt:
		return &s.Line
	case *source.ForStmt:
		return &s.Line
	case *source.SwitchStmt:
		return &s.Line
	case *source.ReturnStmt:
		return &s.Line
	case *source.BreakStmt:
		return &s.Line
	case *source.ContinueStmt:
		return &s.Line
	case *source.ExprStmt:
		return &s.Line
	}
	panic(fmt.Sprintf("drift: statement %T has no line", s))
}

// cloneFile deep-copies the statement structure of a file. Expressions are
// shared: no mutation rewrites an expression in place.
func cloneFile(f *source.File) *source.File {
	nf := *f
	nf.Funcs = make([]*source.FuncDecl, len(f.Funcs))
	for i, fn := range f.Funcs {
		c := *fn
		c.Body = cloneBlock(fn.Body)
		nf.Funcs[i] = &c
	}
	return &nf
}

func cloneBlock(b *source.BlockStmt) *source.BlockStmt {
	if b == nil {
		return nil
	}
	nb := *b
	nb.Stmts = make([]source.Stmt, len(b.Stmts))
	for i, s := range b.Stmts {
		nb.Stmts[i] = cloneStmt(s)
	}
	return &nb
}

func cloneStmt(s source.Stmt) source.Stmt {
	switch s := s.(type) {
	case *source.BlockStmt:
		return cloneBlock(s)
	case *source.IfStmt:
		c := *s
		c.Then = cloneBlock(s.Then)
		if s.Else != nil {
			c.Else = cloneStmt(s.Else)
		}
		return &c
	case *source.WhileStmt:
		c := *s
		c.Body = cloneBlock(s.Body)
		return &c
	case *source.ForStmt:
		c := *s
		if s.Init != nil {
			c.Init = cloneStmt(s.Init)
		}
		if s.Post != nil {
			c.Post = cloneStmt(s.Post)
		}
		c.Body = cloneBlock(s.Body)
		return &c
	case *source.SwitchStmt:
		c := *s
		c.Values = append([]int64(nil), s.Values...)
		c.Bodies = make([]*source.BlockStmt, len(s.Bodies))
		for i, cb := range s.Bodies {
			c.Bodies[i] = cloneBlock(cb)
		}
		c.Default = cloneBlock(s.Default)
		return &c
	case *source.VarStmt:
		c := *s
		return &c
	case *source.AssignStmt:
		c := *s
		return &c
	case *source.StoreStmt:
		c := *s
		return &c
	case *source.ReturnStmt:
		c := *s
		return &c
	case *source.BreakStmt:
		c := *s
		return &c
	case *source.ContinueStmt:
		c := *s
		return &c
	case *source.ExprStmt:
		c := *s
		return &c
	default:
		return s
	}
}
