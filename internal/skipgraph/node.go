package skipgraph

import (
	"fmt"
	"strings"
)

// Node is a skip-graph peer. The membership vector is stored as bits[1..]:
// bits[i] selects the 0- or 1-sublist the node joins when its level-(i-1)
// list splits into level-i lists (the paper's "ith bit of m(x)"). bits[0] is
// unused (level 0 holds every node). next[i]/prev[i] are the level-i linked
// list neighbours; they are nil beyond the node's singleton level.
type Node struct {
	// The fields every list walk reads come first, so a walk touches as few
	// of a node's cache lines as it can: the flags, the vector, the links,
	// the visit stamps, the owner, the state above and the key. The value
	// record, which only the KV plane reads, comes last.
	dummy bool
	dead  bool // crashed: present in every list but unresponsive
	// hasVal belongs to the value record, and scanRun to mark; they sit with
	// the other flags so the four share a word.
	hasVal  bool
	scanRun uint32

	bits []byte
	next []*Node
	prev []*Node

	// vec is where bits starts out: vectors are O(log n) bits and every list
	// walk reads them, so a typical one lives in the node itself — no
	// second allocation, no second cache line. A longer vector moves to the
	// heap by ordinary append growth. (Never copy a Node by value.)
	vec [24]byte

	// mark is writer-owned scratch: a walk that must visit each node once
	// stamps it with the graph's current mark instead of building a set.
	// A scoped balance scan stamps each level it walks afresh and keeps, in
	// scanRun, the index of the node's run in its run table (runTable).
	mark uint64

	// owner is the graph the node currently belongs to, nil once removed.
	owner *Graph

	// Ext is the layer above's record of the node — the adjuster keeps the
	// node's DSG state here, reached without a lookup. The graph never reads
	// or writes it.
	Ext any

	key Key
	id  int64 // non-negative identifier; doubles as the initial group-id

	// Versioned value record (the KV data plane). val is immutable once
	// stored: Graph.SetValue swaps in a fresh slice per write, never mutates
	// one in place, so a Get or Scan result handed out earlier keeps the
	// bytes it read.
	val []byte
	ver int64
}

// NewNode creates a detached node with the given key and identifier and an
// empty membership vector.
func NewNode(key Key, id int64) *Node {
	if id < 0 {
		panic(fmt.Sprintf("skipgraph: node id must be non-negative, got %d", id))
	}
	n := &Node{key: key, id: id}
	n.bits = n.vec[:1]
	return n
}

// NewDummy creates a dummy (logical, §IV-F) node: it carries no data, only
// routes, and destroys itself on the next transformation notification.
func NewDummy(key Key, id int64) *Node {
	n := new(Node)
	InitDummy(n, key, id, nil)
	return n
}

// InitDummy makes n, which must be a zero Node, the detached dummy NewDummy
// returns: for a caller that allocates the node inside a record of its own.
// links, zero and of even length, becomes the backing store of the node's
// links at levels below len(links)/2, so the record can hold those too.
func InitDummy(n *Node, key Key, id int64, links []*Node) {
	if id < 0 {
		panic(fmt.Sprintf("skipgraph: node id must be non-negative, got %d", id))
	}
	n.key, n.id, n.dummy = key, id, true
	n.bits = n.vec[:1]
	k := len(links) / 2
	n.next, n.prev = links[:0:k], links[k:k:2*k]
}

// Key returns the node's key.
func (n *Node) Key() Key { return n.key }

// ID returns the node's non-negative identifier.
func (n *Node) ID() int64 { return n.id }

// IsDummy reports whether the node is a dummy placed for a-balance repair.
func (n *Node) IsDummy() bool { return n.dummy }

// Dead reports whether the node has crashed (Graph.Crash). A dead node still
// occupies every list it was in — its neighbours' references dangle at an
// unresponsive peer until a detection-triggered repair splices it out.
func (n *Node) Dead() bool { return n.dead }

// Value returns the node's value record: the stored bytes, the version
// assigned at the write, and whether a value is present at all. The returned
// slice is the stored one — treat it as immutable.
func (n *Node) Value() ([]byte, int64, bool) { return n.val, n.ver, n.hasVal }

// Bit returns the membership-vector bit deciding the node's level-i list
// (i ≥ 1). It panics if the bit has not been assigned.
func (n *Node) Bit(i int) byte {
	if i < 1 || i >= len(n.bits) {
		panic(fmt.Sprintf("skipgraph: node %v has no membership bit for level %d", n.key, i))
	}
	return n.bits[i]
}

// HasBit reports whether the membership bit for level i is assigned.
func (n *Node) HasBit(i int) bool { return i >= 1 && i < len(n.bits) }

// SetBit assigns the membership bit for level i, extending the vector. Bits
// must be assigned contiguously from level 1 upward.
func (n *Node) SetBit(i int, b byte) {
	if b != 0 && b != 1 {
		panic(fmt.Sprintf("skipgraph: bit must be 0 or 1, got %d", b))
	}
	switch {
	case i < 1:
		panic(fmt.Sprintf("skipgraph: invalid bit level %d", i))
	case i < len(n.bits):
		n.bits[i] = b
	case i == len(n.bits):
		n.bits = append(n.bits, b)
	default:
		panic(fmt.Sprintf("skipgraph: non-contiguous bit assignment at level %d (have %d)", i, len(n.bits)-1))
	}
}

// TruncateBits discards membership bits for levels > keep. Used when a
// transformation reassigns the membership vector above a level.
func (n *Node) TruncateBits(keep int) {
	if keep < 0 {
		keep = 0
	}
	if keep+1 < len(n.bits) {
		n.bits = n.bits[:keep+1]
	}
}

// BitsLen returns the highest level with an assigned membership bit.
func (n *Node) BitsLen() int { return len(n.bits) - 1 }

// MembershipVector renders the assigned bits, lowest level first (the
// paper's m(x), e.g. "01" for node M in Fig 1).
func (n *Node) MembershipVector() string {
	var sb strings.Builder
	for i := 1; i < len(n.bits); i++ {
		sb.WriteByte('0' + n.bits[i])
	}
	return sb.String()
}

// AppendBits appends the assigned membership bits to dst, level 1 first —
// MembershipVector's content as raw 0/1 bytes.
func (n *Node) AppendBits(dst []byte) []byte { return append(dst, n.bits[1:]...) }

// Next returns the level-i right neighbour, or nil.
func (n *Node) Next(i int) *Node {
	if i < 0 || i >= len(n.next) {
		return nil
	}
	return n.next[i]
}

// Prev returns the level-i left neighbour, or nil.
func (n *Node) Prev(i int) *Node {
	if i < 0 || i >= len(n.prev) {
		return nil
	}
	return n.prev[i]
}

// ListHead returns the first node of the level-i list containing n (n itself
// when it has no level-i left neighbour).
func (n *Node) ListHead(i int) *Node {
	head := n
	for p := head.Prev(i); p != nil; p = head.Prev(i) {
		head = p
	}
	return head
}

// MaxLinkedLevel returns the highest level at which the node has a
// neighbour, 0 when it has none.
func (n *Node) MaxLinkedLevel() int { return max(n.linkedTop(), 0) }

// linkedTop returns the highest level at which the node has a neighbour,
// -1 when it has none.
func (n *Node) linkedTop() int {
	for i := len(n.next) - 1; i >= 0; i-- {
		if n.next[i] != nil || n.prev[i] != nil {
			return i
		}
	}
	return -1
}

// setLink sets the level-i neighbours, growing the link slices as needed.
func (n *Node) setLink(i int, prev, next *Node) {
	for len(n.next) <= i {
		n.next = append(n.next, nil)
		n.prev = append(n.prev, nil)
	}
	n.prev[i] = prev
	n.next[i] = next
}

// reserveLinks makes room for links at levels 0..top in one allocation
// shared by both directions, for a node about to be linked level by level.
func (n *Node) reserveLinks(top int) {
	if want := top + 1; cap(n.next) < want || cap(n.prev) < want {
		buf := make([]*Node, 2*want)
		n.next = append(buf[:0:want], n.next...)
		n.prev = append(buf[want:want:2*want], n.prev...)
	}
}

// clearLinksAbove removes all links at levels > keep.
func (n *Node) clearLinksAbove(keep int) {
	for i := keep + 1; i < len(n.next); i++ {
		n.next[i] = nil
		n.prev[i] = nil
	}
	if keep+1 < len(n.next) {
		n.next = n.next[:keep+1]
		n.prev = n.prev[:keep+1]
	}
}

// String renders the node for debugging.
func (n *Node) String() string {
	tag := ""
	if n.dummy {
		tag = "~"
	}
	if n.dead {
		tag += "!"
	}
	return fmt.Sprintf("%s%v[%s]", tag, n.key, n.MembershipVector())
}

// CommonPrefixLen returns the paper's α for two nodes: the highest level at
// which both nodes belong to the same linked list, i.e. the length of the
// longest common prefix of their membership vectors (capped by assigned
// bits).
func CommonPrefixLen(u, v *Node) int {
	d := 0
	for i := 1; u.HasBit(i) && v.HasBit(i); i++ {
		if u.bits[i] != v.bits[i] {
			break
		}
		d = i
	}
	return d
}
