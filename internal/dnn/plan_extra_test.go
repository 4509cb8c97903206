package dnn

import "testing"

// Every cut point must be a valid single-tensor boundary: for each node
// after the cut, any input from at-or-before the cut must be the cut node
// itself.
func TestCutPointsValidBoundaries(t *testing.T) {
	nets := []*Network{buildTiny(), buildBranchy(t)}
	for _, n := range nets {
		nodes := n.Nodes()
		index := map[*Node]int{}
		for i, nd := range nodes {
			index[nd] = i
		}
		for _, c := range n.CutPoints() {
			for i := c + 1; i < len(nodes); i++ {
				for _, in := range nodes[i].Inputs {
					if index[in] <= c && index[in] != c {
						t.Errorf("%s: cut %d severs %s -> %s", n.Name, c, in.Name, nodes[i].Name)
					}
				}
			}
		}
	}
}

// buildBranchy creates a net with a residual branch; no cut may fall
// inside the branch.
func buildBranchy(t *testing.T) *Network {
	t.Helper()
	b := NewBuilder("branchy")
	x := b.Input("data", Shape{C: 8, H: 8, W: 8})
	x = b.Add("pre", Conv{OutC: 8, KH: 3, KW: 3, PadH: 1, PadW: 1}, x)
	left := b.Add("left", Conv{OutC: 8, KH: 3, KW: 3, PadH: 1, PadW: 1}, x)
	sum := b.Add("sum", Add{}, left, x)
	post := b.Add("post", Conv{OutC: 8, KH: 3, KW: 3, PadH: 1, PadW: 1}, sum)
	b.Add("softmax", Softmax{}, post)
	return b.Finish()
}

func TestCutPointsExcludeBranchInterior(t *testing.T) {
	n := buildBranchy(t)
	nodes := n.Nodes()
	byName := map[string]int{}
	for i, nd := range nodes {
		byName[nd.Name] = i
	}
	cuts := map[int]bool{}
	for _, c := range n.CutPoints() {
		cuts[c] = true
	}
	// While "pre" is consumed by both "left" and "sum", a cut after "left"
	// would sever pre->sum: it must not be offered.
	if cuts[byName["left"]] {
		t.Error("cut inside the residual branch offered")
	}
	// After "sum" the graph narrows again: valid cut.
	if !cuts[byName["sum"]] {
		t.Error("cut after the residual join missing")
	}
	// A purely sequential prefix boundary is valid.
	if !cuts[byName["pre"]] {
		// pre's output feeds both branches, but it is the ONLY live
		// tensor at that point, so the cut is clean.
		t.Error("cut after pre missing")
	}
}
