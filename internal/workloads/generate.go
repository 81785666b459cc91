package workloads

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
)

// Generate draws one MiniLang program, and its train and eval request
// streams, from seed, for the tests that hold the compiler to its
// references on programs nobody tuned. It returns the program as a
// Workload and its source text, every module under a "// module" line.
//
// Every shape is drawn from the seed, and none is set from outside: 2–3
// modules with calls across them; call chains main → mid → shared → leaf,
// three calls deep; a shared callee that branches on a mode argument each
// mid passes as its own constant, so its hot path depends on the caller; a
// recursion bounded by a decreasing argument; if/else, switch, &&
// conditions, bounded for loops, / and % with non-zero divisors, globals and
// table reads; and nested diamonds whose inner join is the outer join.
//
// Every loop's trip count is a constant and the recursion is at most five
// calls deep. A random call is drawn only while what its caller runs, the
// callee's statements counted in, stays within maxCost statements (see
// gen.expr), so a request runs a bounded number of statements however deep
// the call graph.
func Generate(seed int64) (*Workload, string) {
	g := &gen{rng: rand.New(rand.NewSource(seed))}
	nMods := 2 + g.rng.Intn(2)
	var leaves, recs, mids []*genFunc
	for i := 0; i < 1+g.rng.Intn(2); i++ {
		leaves = append(leaves, g.leaf(i))
	}
	shared := g.shared(leaves)
	if g.rng.Intn(4) != 0 {
		recs = append(recs, g.rec(leaves))
	}
	callees := slices.Concat(leaves, []*genFunc{shared}, recs)
	for i := 0; i < 2+g.rng.Intn(2); i++ {
		mids = append(mids, g.mid(i, shared, callees))
	}
	fns := slices.Concat(callees, mids)
	fns = append(fns, g.main(mids, recs, fns))

	// Modules round-robin over a shuffled order, so none is empty; the
	// globals live in the first.
	mods := make([]strings.Builder, nMods)
	mods[0].WriteString("global g0;\nglobal tab[8] = 1, 2, 3, 4, 5, 6, 7, 8;\n")
	for i, j := range g.rng.Perm(len(fns)) {
		mods[i%nMods].WriteString(fns[j].src)
	}
	texts := map[string]string{}
	var all strings.Builder
	for i := range mods {
		name := fmt.Sprintf("gen%d.ml", i)
		texts[name] = mods[i].String()
		fmt.Fprintf(&all, "// module %s\n%s", name, texts[name])
	}
	name := fmt.Sprintf("gen%d", seed)
	files, err := parse(name, texts)
	if err != nil {
		panic(fmt.Sprintf("workloads: generated program does not parse: %v\n%s", err, all.String()))
	}
	return &Workload{Name: name, Files: files, Train: g.requests(16), Eval: g.requests(8)}, all.String()
}

// maxCost is the most statements a function's random statements may run,
// callees included, once they make a call: a random call that would pass it
// is drawn as a constant instead. The calls each mid and main make on
// purpose come on top.
const maxCost = 400

// genFunc is one generated function.
type genFunc struct {
	name  string
	cost  int // statements one call runs at most, its callees' included
	src   string
	modes int  // a shared callee's cases on its mode argument, else 0
	rec   bool // recursive on its first argument
}

// gen draws one program. The fields after rng describe the function being
// drawn.
type gen struct {
	rng     *rand.Rand
	callees []*genFunc // what its random statements may call
	cost    int        // what the random statements drawn so far run: each statement mult, each call mult times its callee's cost
	mult    int        // times the statement being drawn runs per call: the enclosing loops' trip counts multiplied
	nvars   int        // locals and induction variables declared, for fresh names
	loops   int        // loops drawn by stmts
}

// scope is what a statement may read and what it may assign: loop
// induction variables are read-only, or a loop could run forever.
type scope struct{ read, assign []string }

func (s scope) with(v string, assignable bool) scope {
	s.read = append(s.read[:len(s.read):len(s.read)], v)
	if assignable {
		s.assign = append(s.assign[:len(s.assign):len(s.assign)], v)
	}
	return s
}

// begin starts a function body that may call callees.
func (g *gen) begin(callees []*genFunc) {
	g.callees, g.cost, g.mult, g.nvars, g.loops = callees, 0, 1, 0, 0
}

func (g *gen) pick(vs []string) string { return vs[g.rng.Intn(len(vs))] }

func (g *gen) expr(depth int, s scope) string {
	if depth <= 0 || g.rng.Intn(3) == 0 {
		switch g.rng.Intn(4) {
		case 0:
			return fmt.Sprint(g.rng.Intn(100))
		case 1:
			return g.pick(s.read)
		case 2:
			return fmt.Sprintf("tab[%s %% 8]", g.pick(s.read))
		default:
			if depth > 0 && len(g.callees) > 0 {
				if f := g.callees[g.rng.Intn(len(g.callees))]; g.cost+g.mult*f.cost <= maxCost {
					g.cost += g.mult * f.cost
					return g.call(f, s)
				}
			}
			return fmt.Sprint(g.rng.Intn(50))
		}
	}
	op := []string{"+", "-", "*", "/", "%"}[g.rng.Intn(5)]
	l, r := g.expr(depth-1, s), g.expr(depth-1, s)
	if op == "/" || op == "%" {
		r = fmt.Sprintf("(%s %% 7 + 8)", r) // in [2, 14]
	}
	return fmt.Sprintf("(%s %s %s)", l, op, r)
}

// call is a call of f with arguments read from s: a shared callee gets a
// constant mode, its default case included, and the recursion a first
// argument in [-4, 4].
func (g *gen) call(f *genFunc, s scope) string {
	a, b := g.expr(0, s), g.expr(0, s)
	switch {
	case f.modes > 0:
		return fmt.Sprintf("%s(%s, %d)", f.name, a, g.rng.Intn(f.modes+1))
	case f.rec:
		return fmt.Sprintf("%s(%s %% 5, %s)", f.name, a, b)
	}
	return fmt.Sprintf("%s(%s, %s)", f.name, a, b)
}

func (g *gen) cond(s scope) string {
	c := fmt.Sprintf("%s %s %s", g.expr(1, s), []string{"<", "<=", ">", ">=", "==", "!="}[g.rng.Intn(6)], g.expr(1, s))
	if g.rng.Intn(4) == 0 {
		c = fmt.Sprintf("%s && %s != 0", c, g.expr(1, s))
	}
	return c
}

// loop returns a for loop of trips iterations whose body is drawn by body,
// charged trips times.
func (g *gen) loop(in string, trips int, s scope, body func(string, scope) string) string {
	g.loops++
	iv := fmt.Sprintf("i%d", g.nvars)
	g.nvars++
	g.mult *= trips
	b := body(in+"\t", s.with(iv, false))
	g.mult /= trips
	return fmt.Sprintf("%sfor (var %s = 0; %s < %d; %s = %s + 1) {\n%s%s}\n", in, iv, iv, trips, iv, iv, b, in)
}

func (g *gen) stmts(in string, depth int, s scope) string {
	var sb strings.Builder
	for n := 1 + g.rng.Intn(2); n > 0; n-- {
		g.cost += g.mult
		switch g.rng.Intn(7) {
		case 0:
			v := fmt.Sprintf("v%d", g.nvars)
			g.nvars++
			fmt.Fprintf(&sb, "%svar %s = %s;\n", in, v, g.expr(2, s))
			s = s.with(v, true)
		case 1:
			fmt.Fprintf(&sb, "%s%s = %s;\n", in, g.pick(s.assign), g.expr(2, s))
		case 2:
			if depth > 0 {
				fmt.Fprintf(&sb, "%sif (%s) {\n%s%s} else {\n%s%s}\n", in, g.cond(s),
					g.stmts(in+"\t", depth-1, s), in, g.stmts(in+"\t", depth-1, s), in)
			}
		case 3:
			if depth > 0 && g.loops < 3 {
				sb.WriteString(g.loop(in, 2+g.rng.Intn(4), s, func(in string, s scope) string {
					return g.stmts(in, depth-1, s)
				}))
			}
		case 4:
			if depth > 0 {
				fmt.Fprintf(&sb, "%sswitch (%s %% 3) {\n%scase 0:\n%s%scase 1:\n%s%sdefault:\n%s%s}\n",
					in, g.expr(1, s),
					in, g.stmts(in+"\t", 0, s), in, g.stmts(in+"\t", 0, s), in, g.stmts(in+"\t", 0, s), in)
			}
		case 5:
			// A nested diamond: once the inner one is if-converted, the
			// outer one's arm is straight-line code, so the outer diamond
			// converts only in if-conversion's next sweep. Its inner
			// condition and every arm read a variable and nothing else,
			// and the outer condition is one comparison, so that each arm
			// has one predecessor.
			if depth > 0 {
				x := g.pick(s.assign)
				fmt.Fprintf(&sb, "%sif (%s < %s) {\n%s\tif (%s) { %s = %s; } else { %s = %s; }\n%s} else {\n%s\t%s = %s;\n%s}\n",
					in, g.pick(s.read), g.expr(1, s), in, g.pick(s.read), x, g.pick(s.read), x, g.pick(s.read), in, in, x, g.pick(s.read), in)
			}
		default:
			fmt.Fprintf(&sb, "%s%s = %s + g0;\n", in, g.pick(s.assign), g.expr(1, s))
		}
	}
	return sb.String()
}

// requests draws n requests (a, b) for main.
func (g *gen) requests(n int) [][]int64 {
	out := make([][]int64, n)
	for i := range out {
		out[i] = []int64{g.rng.Int63n(2000) - 200, g.rng.Int63n(2000) - 200}
	}
	return out
}

// leaf calls nothing.
func (g *gen) leaf(i int) *genFunc {
	name := fmt.Sprintf("leaf%d", i)
	g.begin(nil)
	body := g.stmts("\t", 1, scope{read: []string{"x", "y", "r"}, assign: []string{"x", "y", "r"}})
	return &genFunc{name: name, cost: g.cost + 2,
		src: fmt.Sprintf("func %s(x, y) {\n\tvar r = x;\n%s\tg0 = g0 + r %% 13;\n\treturn r + tab[y %% 8];\n}\n", name, body)}
}

// shared branches on its mode: each case runs its own loop, so which
// blocks are hot depends on the caller's constant.
func (g *gen) shared(leaves []*genFunc) *genFunc {
	f := &genFunc{name: "shared", modes: 2 + g.rng.Intn(2)}
	g.begin(leaves)
	s := scope{read: []string{"x", "mode", "r"}, assign: []string{"x", "r"}}
	var sb strings.Builder
	fmt.Fprintf(&sb, "func %s(x, mode) {\n\tvar r = x;\n%s\tswitch (mode) {\n", f.name, g.stmts("\t", 0, s))
	for m := 0; m < f.modes; m++ {
		fmt.Fprintf(&sb, "\tcase %d:\n%s", m, g.loop("\t\t", 4+g.rng.Intn(8), s, func(in string, s scope) string {
			return g.stmts(in, 0, s)
		}))
	}
	leaf := leaves[g.rng.Intn(len(leaves))]
	g.cost += leaf.cost
	fmt.Fprintf(&sb, "\tdefault:\n%s\t}\n\treturn r + %s(r, x);\n}\n", g.stmts("\t\t", 0, s), leaf.name)
	f.cost, f.src = g.cost+2, sb.String()
	return f
}

// rec recurses on a first argument its callers bound to [-4, 4], and each
// call decreases it: at most 5 calls deep.
func (g *gen) rec(leaves []*genFunc) *genFunc {
	f := &genFunc{name: "rec", rec: true}
	g.begin(leaves)
	body := g.stmts("\t", 1, scope{read: []string{"n", "x", "r"}, assign: []string{"x", "r"}})
	f.cost = 5 * (g.cost + 3)
	f.src = fmt.Sprintf("func %s(n, x) {\n\tif (n <= 0) {\n\t\treturn x %% 7;\n\t}\n\tvar r = x + n;\n%s\treturn %s(n - 1, r) + r %% 5;\n}\n", f.name, body, f.name)
	return f
}

// mid calls the shared callee sh with its own mode, i modulo sh's cases,
// so the first mids take different paths through it.
func (g *gen) mid(i int, sh *genFunc, callees []*genFunc) *genFunc {
	name := fmt.Sprintf("mid%d", i)
	g.begin(callees)
	s := scope{read: []string{"x", "y", "r"}, assign: []string{"x", "y", "r"}}
	body := g.stmts("\t", 1, s)
	return &genFunc{name: name, cost: g.cost + sh.cost + 3,
		src: fmt.Sprintf("func %s(x, y) {\n\tvar r = x;\n%s\tr = r + %s(y, %d);\n\treturn r + y;\n}\n",
			name, body, sh.name, i%sh.modes)}
}

// main calls every mid, and the recursion, once each on purpose.
func (g *gen) main(mids, recs, callees []*genFunc) *genFunc {
	g.begin(callees)
	s := scope{read: []string{"a", "b", "s"}, assign: []string{"a", "b", "s"}}
	var sb strings.Builder
	fmt.Fprintf(&sb, "func main(a, b) {\n\tvar s = 0;\n%s", g.stmts("\t", 1, s))
	cost := 0
	for _, f := range slices.Concat(mids, recs) {
		cost += f.cost
	}
	for i, f := range mids {
		fmt.Fprintf(&sb, "\ts = s + %s(a + %d, b);\n", f.name, i)
	}
	for _, f := range recs {
		fmt.Fprintf(&sb, "\ts = s + %s(a %% 5, b);\n", f.name)
	}
	fmt.Fprintf(&sb, "\treturn s + g0 + %s;\n}\n", g.expr(2, s))
	return &genFunc{name: "main", cost: cost + g.cost, src: sb.String()}
}
