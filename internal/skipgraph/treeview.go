package skipgraph

import (
	"fmt"
	"strings"
)

// Tree is the binary-tree-of-linked-lists view of a (sub) skip graph that
// the paper uses throughout (Fig 1(b)): every linked list is a tree node;
// the 0-sublist and 1-sublist at the next level are its children.
type Tree struct {
	Prefix string  // common membership-vector prefix ("" at the root)
	Level  int     // list level (== len(Prefix))
	Nodes  []*Node // list members in key order
	Zero   *Tree   // 0-subgraph, nil for leaves
	One    *Tree   // 1-subgraph, nil for leaves
}

// TreeView builds the tree rooted at the base list.
func (g *Graph) TreeView() *Tree {
	return buildTree(g.Nodes(), 0, "")
}

func buildTree(nodes []*Node, level int, prefix string) *Tree {
	t := &Tree{Prefix: prefix, Level: level, Nodes: nodes}
	if len(nodes) < 2 {
		return t
	}
	var zeros, ones []*Node
	for _, n := range nodes {
		if !n.HasBit(level + 1) {
			return t // truncated vector: list does not split further
		}
		if n.Bit(level+1) == 0 {
			zeros = append(zeros, n)
		} else {
			ones = append(ones, n)
		}
	}
	if len(zeros) > 0 {
		t.Zero = buildTree(zeros, level+1, prefix+"0")
	}
	if len(ones) > 0 {
		t.One = buildTree(ones, level+1, prefix+"1")
	}
	return t
}

// Walk visits every tree node in pre-order.
func (t *Tree) Walk(visit func(*Tree)) {
	if t == nil {
		return
	}
	visit(t)
	t.Zero.Walk(visit)
	t.One.Walk(visit)
}

// Label is a function that annotates a node in renderings (e.g. with its
// DSG timestamp as in Fig 4). A nil Label prints nothing.
type Label func(n *Node, level int) string

// RenderLevels renders one line per level listing that level's linked lists
// in key order, the format used by Network.RenderTopology and the figure
// golden tests:
//
//	L0: A J M | G R W        (lists separated by " | ")
func (t *Tree) RenderLevels(name func(*Node) string, label Label) string {
	if name == nil {
		name = func(n *Node) string { return n.Key().String() }
	}
	byLevel := make(map[int][]*Tree)
	maxLevel := 0
	t.Walk(func(tt *Tree) {
		byLevel[tt.Level] = append(byLevel[tt.Level], tt)
		if tt.Level > maxLevel {
			maxLevel = tt.Level
		}
	})
	var sb strings.Builder
	for level := t.Level; level <= maxLevel; level++ {
		lists := byLevel[level]
		parts := make([]string, 0, len(lists))
		for _, l := range lists {
			names := make([]string, len(l.Nodes))
			for i, n := range l.Nodes {
				names[i] = name(n)
				if label != nil {
					if s := label(n, level); s != "" {
						names[i] += "(" + s + ")"
					}
				}
			}
			parts = append(parts, strings.Join(names, " "))
		}
		fmt.Fprintf(&sb, "L%d: %s\n", level, strings.Join(parts, " | "))
	}
	return sb.String()
}
