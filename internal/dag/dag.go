// Package dag implements the directed-acyclic-graph machinery underlying
// the limited-preemption response-time analysis of Serrano et al.
// (DATE 2016).
//
// A Graph models one sporadic DAG task: nodes are non-preemptive regions
// (NPRs, "task parts" in OpenMP nomenclature) labelled with their WCET,
// and edges are precedence constraints. The package provides the
// structural quantities the analysis needs — longest path L, volume
// vol(G), topological order, transitive successor/predecessor sets,
// sibling sets — together with the two ways of deriving, for every node,
// the set of nodes that may execute in parallel with it:
//
//   - Parallel: the exact definition (two nodes are parallel iff neither
//     is reachable from the other), which is what the analysis must use to
//     stay sound on arbitrary DAGs; and
//   - Algorithm1Parallel: a verbatim implementation of Algorithm 1 of the
//     paper, which matches Parallel on every single-source DAG (the only
//     kind the paper's generator emits) but under-approximates on DAGs
//     with several sources. Tests pin both behaviours.
package dag

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/bitset"
)

// Graph is an immutable directed acyclic graph of non-preemptive regions.
// Build one with a Builder. Node indices run from 0 to N()-1; in the
// paper's notation node v_{i,j} of task τ_i is index j-1.
//
// Because a Graph never changes after Build, every derived quantity is
// a pure function of it and is memoized: the cheap O(V+E) scalars
// (volume, longest path) are computed once at Build time, the heavier
// structures (sorted WCETs, reachability and parallelism bitsets, the
// content fingerprint) lazily on first use, concurrency-safely. The
// memos live and die with the Graph, so analyses that revisit a graph —
// every fixed-point iteration, every suffix of a priority ordering,
// every method of a comparison sweep — pay for each quantity once.
type Graph struct {
	wcet  []int64
	succ  [][]int // direct successors, each sorted ascending
	pred  [][]int // direct predecessors, each sorted ascending
	topo  []int   // one fixed topological order
	names []string

	volume  int64 // Σ wcet, fixed at Build
	longest int64 // longest-path length L, fixed at Build

	sortedOnce sync.Once
	sorted     []int64 // WCETs, non-increasing

	reachOnce sync.Once
	reach     []*bitset.Set // SUCC(v) per node

	parOnce sync.Once
	par     []*bitset.Set // Par(v) per node (exact definition)

	parMatOnce sync.Once
	parMat     [][]bool // IsPar matrix over par

	fpOnce sync.Once
	fp     string // sha256 over canonical content
}

// Builder accumulates nodes and edges and validates them into a Graph.
// The zero value is ready to use.
type Builder struct {
	wcet  []int64
	names []string
	edges [][2]int
}

// AddNode appends a node with the given worst-case execution time and
// returns its index. WCETs must be positive; Build reports violations.
func (b *Builder) AddNode(wcet int64) int {
	b.wcet = append(b.wcet, wcet)
	b.names = append(b.names, "")
	return len(b.wcet) - 1
}

// AddNamedNode appends a node with an explicit display name.
func (b *Builder) AddNamedNode(name string, wcet int64) int {
	i := b.AddNode(wcet)
	b.names[i] = name
	return i
}

// AddEdge records a precedence constraint from node u to node v.
func (b *Builder) AddEdge(u, v int) {
	b.edges = append(b.edges, [2]int{u, v})
}

// Build validates the accumulated nodes and edges and returns the Graph.
// It reports an error if the builder is empty, a WCET is non-positive, an
// edge endpoint is out of range, an edge is duplicated or a self-loop, or
// the edge set contains a cycle.
func (b *Builder) Build() (*Graph, error) {
	n := len(b.wcet)
	if n == 0 {
		return nil, fmt.Errorf("dag: graph must have at least one node")
	}
	for i, c := range b.wcet {
		if c <= 0 {
			return nil, fmt.Errorf("dag: node %d has non-positive WCET %d", i, c)
		}
	}
	succ := make([][]int, n)
	pred := make([][]int, n)
	seen := make(map[[2]int]bool, len(b.edges))
	for _, e := range b.edges {
		u, v := e[0], e[1]
		if u < 0 || u >= n || v < 0 || v >= n {
			return nil, fmt.Errorf("dag: edge (%d,%d) out of range [0,%d)", u, v, n)
		}
		if u == v {
			return nil, fmt.Errorf("dag: self-loop on node %d", u)
		}
		if seen[e] {
			return nil, fmt.Errorf("dag: duplicate edge (%d,%d)", u, v)
		}
		seen[e] = true
		succ[u] = append(succ[u], v)
		pred[v] = append(pred[v], u)
	}
	for i := range succ {
		sort.Ints(succ[i])
		sort.Ints(pred[i])
	}
	g := &Graph{wcet: append([]int64(nil), b.wcet...), succ: succ, pred: pred,
		names: append([]string(nil), b.names...)}
	topo, err := g.computeTopo()
	if err != nil {
		return nil, err
	}
	g.topo = topo
	for _, c := range g.wcet {
		g.volume += c
	}
	g.longest = g.computeLongestPath()
	return g, nil
}

// MustBuild is Build that panics on error, for fixtures and tests.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// computeTopo returns a deterministic topological order (Kahn's algorithm
// with smallest-index tie-breaking) or an error if the graph is cyclic.
func (g *Graph) computeTopo() ([]int, error) {
	n := g.N()
	indeg := make([]int, n)
	for v := 0; v < n; v++ {
		indeg[v] = len(g.pred[v])
	}
	// Min-heap-free variant: scan for the smallest ready index. n ≤ a few
	// dozen in this domain, so O(n²) keeps the code obvious.
	done := make([]bool, n)
	order := make([]int, 0, n)
	for len(order) < n {
		next := -1
		for v := 0; v < n; v++ {
			if !done[v] && indeg[v] == 0 {
				next = v
				break
			}
		}
		if next == -1 {
			return nil, fmt.Errorf("dag: cycle detected")
		}
		done[next] = true
		order = append(order, next)
		for _, w := range g.succ[next] {
			indeg[w]--
		}
	}
	return order, nil
}

// N returns the number of nodes (NPRs). In the paper's notation this is
// q_k + 1.
func (g *Graph) N() int { return len(g.wcet) }

// PreemptionPoints returns q_k = |V_k| - 1, the number of potential
// preemption points of the task.
func (g *Graph) PreemptionPoints() int { return g.N() - 1 }

// WCET returns the worst-case execution time C of node v.
func (g *Graph) WCET(v int) int64 { return g.wcet[v] }

// WCETs returns a copy of all node WCETs indexed by node.
func (g *Graph) WCETs() []int64 { return append([]int64(nil), g.wcet...) }

// Name returns the display name of node v, or "v<i+1>" if none was set
// (mirroring the paper's v_{i,j} labels, which are 1-based).
func (g *Graph) Name(v int) string {
	if g.names[v] != "" {
		return g.names[v]
	}
	return fmt.Sprintf("v%d", v+1)
}

// Successors returns the direct successors of v in ascending order. The
// returned slice is shared; callers must not modify it.
func (g *Graph) Successors(v int) []int { return g.succ[v] }

// Predecessors returns the direct predecessors of v in ascending order.
// The returned slice is shared; callers must not modify it.
func (g *Graph) Predecessors(v int) []int { return g.pred[v] }

// HasEdge reports whether the direct edge (u,v) exists.
func (g *Graph) HasEdge(u, v int) bool {
	s := g.succ[u]
	i := sort.SearchInts(s, v)
	return i < len(s) && s[i] == v
}

// Edges returns all direct edges in deterministic (source, target) order.
func (g *Graph) Edges() [][2]int {
	var out [][2]int
	for u := 0; u < g.N(); u++ {
		for _, v := range g.succ[u] {
			out = append(out, [2]int{u, v})
		}
	}
	return out
}

// NumEdges returns the number of direct edges.
func (g *Graph) NumEdges() int {
	n := 0
	for _, s := range g.succ {
		n += len(s)
	}
	return n
}

// TopologicalOrder returns a topological order of the nodes. The returned
// slice is shared; callers must not modify it.
func (g *Graph) TopologicalOrder() []int { return g.topo }

// Sources returns the nodes with no predecessors, ascending.
func (g *Graph) Sources() []int {
	var out []int
	for v := 0; v < g.N(); v++ {
		if len(g.pred[v]) == 0 {
			out = append(out, v)
		}
	}
	return out
}

// Sinks returns the nodes with no successors, ascending.
func (g *Graph) Sinks() []int {
	var out []int
	for v := 0; v < g.N(); v++ {
		if len(g.succ[v]) == 0 {
			out = append(out, v)
		}
	}
	return out
}

// Volume returns vol(G): the sum of all node WCETs, i.e. the WCET of the
// task on a dedicated single core. Memoized at Build time; O(1).
func (g *Graph) Volume() int64 { return g.volume }

// LongestPath returns L: the maximum, over all paths, of the summed node
// WCETs — the minimum time the task needs on infinitely many cores.
// Memoized at Build time; O(1).
func (g *Graph) LongestPath() int64 { return g.longest }

// computeLongestPath is the Build-time longest-path DP.
func (g *Graph) computeLongestPath() int64 {
	best := make([]int64, g.N())
	var l int64
	for _, v := range g.topo {
		best[v] = g.wcet[v]
		for _, u := range g.pred[v] {
			if best[u]+g.wcet[v] > best[v] {
				best[v] = best[u] + g.wcet[v]
			}
		}
		if best[v] > l {
			l = best[v]
		}
	}
	return l
}

// CriticalPath returns one longest path as a node sequence from a source
// to a sink, deterministically (smallest-index tie-break).
func (g *Graph) CriticalPath() []int {
	n := g.N()
	best := make([]int64, n)
	from := make([]int, n)
	for i := range from {
		from[i] = -1
	}
	end, endLen := -1, int64(-1)
	for _, v := range g.topo {
		best[v] = g.wcet[v]
		for _, u := range g.pred[v] {
			if best[u]+g.wcet[v] > best[v] {
				best[v] = best[u] + g.wcet[v]
				from[v] = u
			}
		}
		if best[v] > endLen {
			endLen = best[v]
			end = v
		}
	}
	var rev []int
	for v := end; v != -1; v = from[v] {
		rev = append(rev, v)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// Reach returns, for every node v, the set SUCC(v) of nodes reachable
// from v by one or more edges (v itself excluded). The result is
// memoized on the graph and shared; callers must not modify the sets.
func (g *Graph) Reach() []*bitset.Set {
	g.reachOnce.Do(func() {
		n := g.N()
		out := bitset.Slab(n, n)
		// Reverse topological order: successors' reach is complete first.
		for i := n - 1; i >= 0; i-- {
			v := g.topo[i]
			for _, w := range g.succ[v] {
				out[v].Add(w)
				out[v].UnionWith(out[w])
			}
		}
		g.reach = out
	})
	return g.reach
}

// CoReach returns, for every node v, the set PRED(v) of nodes from which
// v is reachable (v itself excluded).
func (g *Graph) CoReach() []*bitset.Set {
	n := g.N()
	out := bitset.Slab(n, n)
	for _, v := range g.topo {
		for _, u := range g.pred[v] {
			out[v].Add(u)
			out[v].UnionWith(out[u])
		}
	}
	return out
}

// Siblings returns, for every node v, the set SIBLING(v) of nodes (other
// than v) that share at least one direct predecessor with v. This is one
// of the three inputs of Algorithm 1.
func (g *Graph) Siblings() []*bitset.Set {
	n := g.N()
	out := bitset.Slab(n, n)
	for u := 0; u < n; u++ {
		children := g.succ[u]
		for _, a := range children {
			for _, b := range children {
				if a != b {
					out[a].Add(b)
				}
			}
		}
	}
	return out
}

// Parallel returns, for every node v, the exact set Par(v) of nodes that
// can execute in parallel with v: the nodes u ≠ v such that u is not
// reachable from v and v is not reachable from u. This is the definition
// the blocking analysis relies on; it is sound for arbitrary DAGs. The
// result is memoized on the graph and shared; callers must not modify
// the sets.
func (g *Graph) Parallel() []*bitset.Set {
	g.parOnce.Do(func() {
		n := g.N()
		succ := g.Reach()
		out := bitset.Slab(n, n)
		for v := 0; v < n; v++ {
			s := out[v]
			for u := 0; u < n; u++ {
				if u != v && !succ[v].Contains(u) && !succ[u].Contains(v) {
					s.Add(u)
				}
			}
		}
		g.par = out
	})
	return g.par
}

// Algorithm1Parallel is a verbatim implementation of Algorithm 1 of
// Serrano et al. (DATE 2016): it derives Par(v) from the SIBLING, SUCC
// and PRED sets in two passes, the second in topological order.
//
// On single-source DAGs — the only shape the paper's generator produces —
// the result equals Parallel. On multi-source DAGs Algorithm 1 misses
// pairs whose only "common ancestor" would be a virtual root (e.g. two
// disconnected chains), so the exact Parallel must be preferred for
// soundness; the discrepancy is documented and tested.
func (g *Graph) Algorithm1Parallel() []*bitset.Set {
	n := g.N()
	succ := g.Reach()
	pred := g.CoReach()
	sib := g.Siblings()
	par := bitset.Slab(n, n)
	// First loop (lines 2-10): unconnected siblings and their successors.
	for vj := 0; vj < n; vj++ {
		sib[vj].ForEach(func(vl int) bool {
			if !succ[vj].Contains(vl) && !succ[vl].Contains(vj) {
				// Succ ← SUCC(v_l) \ SUCC(v_j); Par(v_j) ∪= {v_l} ∪ Succ.
				s := succ[vl].Clone()
				s.DifferenceWith(succ[vj])
				par[vj].Add(vl)
				par[vj].UnionWith(s)
			}
			return true
		})
	}
	// Second loop (lines 11-16): inherit from predecessors in topological
	// order, discarding own ancestors.
	for _, vj := range g.topo {
		for _, vl := range g.pred[vj] {
			p := par[vl].Clone()
			p.DifferenceWith(pred[vj])
			par[vj].UnionWith(p)
		}
	}
	// A node is never parallel with itself or with anything the first
	// loop accidentally added that is ordered with it. The verbatim
	// algorithm can momentarily include ancestors through the sibling
	// successor union; scrub exactly as the paper's set algebra implies.
	for v := 0; v < n; v++ {
		par[v].Remove(v)
	}
	return par
}

// IsParallelMatrix returns the symmetric boolean matrix IsPar of the
// paper's first ILP: IsPar[j][k] is true iff nodes j and k can execute in
// parallel (exact reachability definition). The result is memoized on
// the graph and shared; callers must not modify it.
func (g *Graph) IsParallelMatrix() [][]bool {
	g.parMatOnce.Do(func() {
		n := g.N()
		par := g.Parallel()
		m := make([][]bool, n)
		for j := 0; j < n; j++ {
			m[j] = make([]bool, n)
			par[j].ForEach(func(k int) bool {
				m[j][k] = true
				return true
			})
		}
		g.parMat = m
	})
	return g.parMat
}

// Width returns the maximum number of nodes that can execute in parallel:
// the maximum antichain of the precedence partial order. By Dilworth's
// theorem this equals n minus the maximum matching of the bipartite graph
// over the transitive closure, which is what this method computes.
func (g *Graph) Width() int {
	_, _, matching := g.closureMatching()
	return g.N() - matching
}

// closureMatching computes a maximum matching of the bipartite graph
// whose left copy u links to right copy v iff u precedes v
// (Hopcroft-Karp-free augmenting paths; n is small in this domain). It
// returns both match arrays (-1 = unmatched) and the matching size.
func (g *Graph) closureMatching() (matchL, matchR []int, size int) {
	n := g.N()
	reach := g.Reach()
	matchL = make([]int, n) // left u -> right v or -1
	matchR = make([]int, n) // right v -> left u or -1
	for i := range matchL {
		matchL[i] = -1
		matchR[i] = -1
	}
	var try func(u int, seen []bool) bool
	try = func(u int, seen []bool) bool {
		found := false
		reach[u].ForEach(func(v int) bool {
			if seen[v] {
				return true
			}
			seen[v] = true
			if matchR[v] == -1 || try(matchR[v], seen) {
				matchL[u] = v
				matchR[v] = u
				found = true
				return false
			}
			return true
		})
		return found
	}
	for u := 0; u < n; u++ {
		if try(u, make([]bool, n)) {
			size++
		}
	}
	return matchL, matchR, size
}

// MaxAntichain returns one maximum antichain (a largest set of mutually
// parallel nodes), ascending. Its length equals Width. It is derived from
// the minimum chain cover via the König construction.
func (g *Graph) MaxAntichain() []int {
	n := g.N()
	reach := g.Reach()
	matchL, matchR, _ := g.closureMatching()
	// König: minimum vertex cover from unmatched-left alternating
	// reachability; antichain = nodes not in the cover, mapped back.
	visitedL := make([]bool, n)
	visitedR := make([]bool, n)
	var alt func(u int)
	alt = func(u int) {
		visitedL[u] = true
		reach[u].ForEach(func(v int) bool {
			if !visitedR[v] {
				visitedR[v] = true
				if matchR[v] != -1 && !visitedL[matchR[v]] {
					alt(matchR[v])
				}
			}
			return true
		})
	}
	for u := 0; u < n; u++ {
		if matchL[u] == -1 {
			alt(u)
		}
	}
	// Cover = (left not visited) ∪ (right visited). A node i is in the
	// antichain iff left-i not in cover and right-i not in cover.
	var out []int
	for i := 0; i < n; i++ {
		leftInCover := !visitedL[i]
		rightInCover := visitedR[i]
		if !leftInCover && !rightInCover {
			out = append(out, i)
		}
	}
	return out
}

// SortedWCETs returns the node WCETs in non-increasing order — the
// top-NPR list of the Equation (5) blocking bound. The result is
// memoized on the graph and shared; callers must not modify it.
func (g *Graph) SortedWCETs() []int64 {
	g.sortedOnce.Do(func() {
		c := g.WCETs()
		sort.Slice(c, func(i, j int) bool { return c[i] > c[j] })
		g.sorted = c
	})
	return g.sorted
}

// Fingerprint returns a collision-resistant content digest of the graph:
// the SHA-256 of its canonical form (node count, node WCETs, and the
// deterministic edge list; display names are excluded because they never
// affect analysis). Structurally identical graphs — however and wherever
// they were built — share one fingerprint, which makes it the O(1)
// content-addressing key of the analysis cache. Memoized on the graph.
func (g *Graph) Fingerprint() string {
	g.fpOnce.Do(func() {
		buf := make([]byte, 0, 16*g.N())
		buf = strconv.AppendInt(buf, int64(g.N()), 10)
		buf = append(buf, ';')
		for _, c := range g.wcet {
			buf = strconv.AppendInt(buf, c, 10)
			buf = append(buf, ',')
		}
		buf = append(buf, ';')
		for u := 0; u < g.N(); u++ {
			for _, v := range g.succ[u] {
				buf = strconv.AppendInt(buf, int64(u), 10)
				buf = append(buf, '>')
				buf = strconv.AppendInt(buf, int64(v), 10)
				buf = append(buf, ',')
			}
		}
		sum := sha256.Sum256(buf)
		g.fp = string(sum[:])
	})
	return g.fp
}

// MaxWCET returns the largest node WCET — the longest NPR of the task.
func (g *Graph) MaxWCET() int64 {
	var m int64
	for _, c := range g.wcet {
		if c > m {
			m = c
		}
	}
	return m
}

// DOT renders the graph in Graphviz DOT syntax, labelling each node with
// its name and WCET, for the examples and command-line tools.
func (g *Graph) DOT(graphName string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", graphName)
	b.WriteString("  rankdir=TB;\n  node [shape=ellipse];\n")
	for v := 0; v < g.N(); v++ {
		fmt.Fprintf(&b, "  n%d [label=\"%s (%d)\"];\n", v, g.Name(v), g.wcet[v])
	}
	for _, e := range g.Edges() {
		fmt.Fprintf(&b, "  n%d -> n%d;\n", e[0], e[1])
	}
	b.WriteString("}\n")
	return b.String()
}

// Clone returns a deep copy of the graph. The Build-time scalars carry
// over; the lazy memos are recomputed on demand by the copy.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		wcet:    append([]int64(nil), g.wcet...),
		succ:    make([][]int, g.N()),
		pred:    make([][]int, g.N()),
		topo:    append([]int(nil), g.topo...),
		names:   append([]string(nil), g.names...),
		volume:  g.volume,
		longest: g.longest,
	}
	for i := range g.succ {
		c.succ[i] = append([]int(nil), g.succ[i]...)
		c.pred[i] = append([]int(nil), g.pred[i]...)
	}
	return c
}
