package lang

import (
	"fmt"
	"sort"
)

// CFG is a control-flow graph over atomic commands. Edges carry either an
// atomic command or nil (an ε edge introduced by choice and iteration).
// Structured programs lower to CFGs via BuildCFG; the dataflow solver and
// the benchmark IR both consume this representation.
type CFG struct {
	Nodes int
	Entry int
	Exit  int
	Edges []Edge
	// Out[n] lists indices into Edges of the edges leaving n.
	Out [][]int
	// Label optionally names nodes (query points, source positions).
	Label map[int]string
}

// Edge is a CFG edge from From to To. A is nil for ε edges.
type Edge struct {
	From, To int
	A        Atom
}

// NewCFG returns an empty CFG with no nodes.
func NewCFG() *CFG {
	return &CFG{Label: make(map[int]string)}
}

// AddNode allocates a fresh node and returns its index.
func (g *CFG) AddNode() int {
	n := g.Nodes
	g.Nodes++
	g.Out = append(g.Out, nil)
	return n
}

// AddEdge adds an edge from → to labelled with a (nil for ε).
func (g *CFG) AddEdge(from, to int, a Atom) {
	if from < 0 || from >= g.Nodes || to < 0 || to >= g.Nodes {
		panic(fmt.Sprintf("lang: AddEdge(%d,%d) out of range [0,%d)", from, to, g.Nodes))
	}
	g.Edges = append(g.Edges, Edge{from, to, a})
	g.Out[from] = append(g.Out[from], len(g.Edges)-1)
}

// BuildCFG lowers a structured program to a CFG with a single entry and a
// single exit.
func BuildCFG(p Prog) *CFG {
	g := NewCFG()
	g.Entry = g.AddNode()
	g.Exit = lower(g, p, g.Entry)
	return g
}

// lower threads program p from node `from`, returning the node reached after
// executing p.
func lower(g *CFG, p Prog, from int) int {
	switch p := p.(type) {
	case Skip:
		return from
	case Atomic:
		to := g.AddNode()
		g.AddEdge(from, to, p.A)
		return to
	case Seq:
		mid := lower(g, p.Fst, from)
		return lower(g, p.Snd, mid)
	case Choice:
		lEnd := lower(g, p.Left, from)
		rEnd := lower(g, p.Right, from)
		join := g.AddNode()
		g.AddEdge(lEnd, join, nil)
		g.AddEdge(rEnd, join, nil)
		return join
	case Star:
		head := g.AddNode()
		g.AddEdge(from, head, nil)
		bodyEnd := lower(g, p.Body, head)
		g.AddEdge(bodyEnd, head, nil)
		return head
	}
	panic("lang: unknown program form")
}

// ReversePostorder returns the nodes reachable from Entry in reverse
// postorder, a good iteration order for forward dataflow.
func (g *CFG) ReversePostorder() []int {
	visited := make([]bool, g.Nodes)
	var order []int
	var dfs func(n int)
	dfs = func(n int) {
		visited[n] = true
		for _, ei := range g.Out[n] {
			e := g.Edges[ei]
			if !visited[e.To] {
				dfs(e.To)
			}
		}
		order = append(order, n)
	}
	dfs(g.Entry)
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	return order
}

// Names collects the local variables, fields, and allocation sites the
// atoms of g mention, each sorted: the parameter universes the clients'
// analyses are built over.
func Names(g *CFG) (locals, fields, sites []string) {
	lm, fm, hm := map[string]bool{}, map[string]bool{}, map[string]bool{}
	for _, e := range g.Edges {
		switch a := e.A.(type) {
		case Alloc:
			lm[a.V] = true
			hm[a.H] = true
		case Move:
			lm[a.Dst] = true
			lm[a.Src] = true
		case MoveNull:
			lm[a.V] = true
		case GlobalWrite:
			lm[a.V] = true
		case GlobalRead:
			lm[a.V] = true
		case Load:
			lm[a.Dst] = true
			lm[a.Src] = true
			fm[a.F] = true
		case Store:
			lm[a.Dst] = true
			lm[a.Src] = true
			fm[a.F] = true
		case Invoke:
			lm[a.V] = true
		}
	}
	return sortedKeys(lm), sortedKeys(fm), sortedKeys(hm)
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
