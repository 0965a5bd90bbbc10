package core

import (
	"math/bits"
	"sort"

	"lsasg/internal/amf"
	"lsasg/internal/skipgraph"
)

// scratch is the adjuster's reusable arena (see the package comment): the
// scoped repair's working sets and the transformation's per-request
// bookkeeping. Every buffer is truncated, not freed, between operations, and
// everything that holds a node or state pointer is cleared when its
// operation ends, so the arena never keeps a removed node alive.
type scratch struct {
	repair    repairScratch
	transform transformCtx
	route     []*skipgraph.Node // the path of the route Access measures
}

// repairScratch is RepairBalanceIn's working memory.
type repairScratch struct {
	viols   []skipgraph.BalanceViolation
	touched []skipgraph.ListRef // every list a round's repairs touched; its tail is the frontier
	gc      []skipgraph.ListRef // every list a round's GC sweeps touched; likewise
	ext     []skipgraph.ListRef // lists touched by distinctness extensions
	dummies []*skipgraph.Node   // GC candidates of one sweep
	cands   []*skipgraph.Node   // neighbours of a node being spliced out
	crash   []skipgraph.ListRef // a crash repair's dirty set
}

// recycle empties a scratch buffer for its next use, dropping the
// references it held. Every reuse of a pointer-bearing buffer goes through
// here, so a buffer never hides a stale pointer beyond its length.
func recycle[T any](buf []T) []T {
	clear(buf)
	return buf[:0]
}

// release drops every node reference the repair buffers hold.
func (sc *repairScratch) release() {
	sc.viols = recycle(sc.viols)
	sc.touched = recycle(sc.touched)
	sc.gc = recycle(sc.gc)
	sc.ext = recycle(sc.ext)
	sc.dummies = recycle(sc.dummies)
	sc.cands = recycle(sc.cands)
	sc.crash = recycle(sc.crash)
}

// member is one node taking part in a transformation plus everything the
// phases remember about it. Members are addressed by ordinal — their index
// in transformCtx.ents: the real members of l_alpha first, in key order,
// then the level-alpha dummies that survive, then the dummies the balance
// pass creates, in creation order.
type member struct {
	n   *skipgraph.Node
	s   *nodeState
	key skipgraph.Key // n's, for the key merges and searches over members

	pri    priority
	inZero bool  // side chosen by the split in progress
	inGs   bool  // member of the straddling group of the split in progress
	merged bool  // joined the communicating pair's merged group
	glower bool  // initialized or received Glower (rule T4)
	gid    int32 // dense group index within the split in progress

	// The state "in S_t" the timestamp rules refer to, written once at
	// snapshot time: T then G back to back in transformCtx.oldWords from
	// tOff, the membership bits in transformCtx.oldBits from bOff.
	tOff, tLen, gLen int32
	bOff, bLen       int32

	// A real member's way down from l_alpha, before and after: bit k of
	// oldPath and path is the side — the sublist — it joined at level
	// alpha+1+k, for the oldSteps and steps levels its vector reaches above
	// alpha. Two members share a level-(alpha+k) list exactly when both ways
	// reach k levels and agree on the first k sides, which is how
	// oldCommonPrefix and newCommonPrefix answer without reading the vectors.
	oldPath, path   uint64
	oldSteps, steps int32

	lowestSplit int32 // lowest old level at which the member's group split; -1 if none
}

// listSpan names one linked list of the transformed region: lists[off:off+n]
// holds the ordinals of its real members in key order (for l_alpha itself,
// span 0, the kept dummies too, in position).
type listSpan struct {
	off, n int
	level  int
	split  bool // holds ≥ 2 real members, so it splits again
	// hasU and hasV say whether u and v are among its members.
	hasU, hasV bool

	// kids are the spans of the 0- and 1-sublist the split formed; 0 — span
	// 0 is l_alpha, nobody's sublist — for an empty side, and for both
	// while the list is unsplit.
	kids [2]int
	// rounds is the list's own cost: its split, plus the chain-detection
	// handshake if its balance pass had to add a dummy.
	rounds int
	// fOff and fN locate the list's complete membership, in key order and
	// with dummies in position, in the balance pass's buffer for its level.
	fOff, fN int

	// The median the list's split computed and handed to every real member
	// (hasMed false when the split needed none).
	med    amf.Value
	hasMed bool
}

// levelMedian is the median a list at one level computed.
type levelMedian struct {
	level int
	med   amf.Value
}

// transformCtx carries the bookkeeping one transformation needs across its
// phases. It lives in the arena: reset at the start of each transformation,
// released at the end.
type transformCtx struct {
	u, v   *skipgraph.Node
	ui, vi int // ordinals of u and v
	t      int64
	alpha  int

	ents []member
	m    int // ents[:m] are the real members of l_alpha
	kept int // ents[m:m+kept] are the surviving level-alpha dummies

	oldBu, oldBv int
	oldWords     []int64       // backing store of every member's oldT and oldG
	oldBits      []byte        // backing store of every member's old membership bits
	glowerOut    []*nodeState  // Glower recipients outside l_alpha
	uMeds        []levelMedian // medians u received, one per list level, ascending

	// lists holds every list the splits form, one span each: the initial
	// l_alpha, then level by level the children. The splits consume the
	// spans as their work queue, the balance pass walks them back deepest
	// first, and the timestamp transport reads them once more.
	lists []int
	spans []listSpan
	// full and below back the complete memberships the balance pass
	// assembles: full for the lists of the level it is visiting, below for
	// their sublists, one level up; they swap roles as the pass descends.
	full, below []int

	// pairSpan is the list whose real members are exactly u and v; it waits
	// for the balance pass before it splits. pairGuests counts the dummies
	// sharing it: the kept ones if it is l_alpha itself, plus every breaker
	// its parent's balance placed on its side.
	pairSpan   int
	pairGuests int

	rounds    int
	levelCost []int                      // per level above alpha: the slowest list's rounds
	dummyKeys map[skipgraph.Key]struct{} // keys reserved for this transformation's dummies

	// Per-phase buffers.
	lalpha     []*skipgraph.Node // l_alpha as walked, dummies included
	doomed     []*skipgraph.Node // its dummies above alpha, which self-destruct
	all        []*skipgraph.Node // the region's nodes in key order, for Relink
	fresh      []*skipgraph.Node // the dummies among them created by this transformation
	real       []int             // real members of the list being split
	boundaries []int             // l_alpha's kept dummies, for its balance pass
	gs         []int             // the straddling group of a negative split
	ordered    []int             // fallbackSplit's priority order
	values     []amf.Value       // the priorities handed to the median finder
	glow       []int64           // Glower group-ids below alpha
	part       []int             // old-list partition of recordOldGroupSplits
	partTmp    []int
	splits     []splitEvent        // the old-group split events, in the order the rules apply them
	unplaced   []skipgraph.ListRef // lists left with a run whose breaker found no key
	groups     gidTable
	agg        []groupAgg
}

// splitEvent says that member o's old group split at an old level.
type splitEvent struct {
	o, level int32
}

// groupAgg aggregates one group of the list being processed.
type groupAgg struct {
	zeros, ones int   // members on each side of the split (reassignGroups)
	size        int   // members in all (recordOldGroupSplits)
	first       int   // first member in key order
	split       bool  // the group no longer shares one list
	hasNewID    bool  // newID is set
	newID       int64 // identifier of a split group's 1-subgraph portion
}

func (ctx *transformCtx) reset(u, v *skipgraph.Node, t int64) {
	ctx.u, ctx.v, ctx.t = u, v, t
	ctx.ui, ctx.vi = -1, -1
	ctx.alpha = skipgraph.CommonPrefixLen(u, v)
	ctx.m, ctx.kept = 0, 0
	ctx.oldWords = ctx.oldWords[:0]
	ctx.oldBits = ctx.oldBits[:0]
	ctx.uMeds = ctx.uMeds[:0]
	ctx.lists = ctx.lists[:0]
	ctx.spans = ctx.spans[:0]
	ctx.full, ctx.below = ctx.full[:0], ctx.below[:0]
	ctx.pairSpan, ctx.pairGuests = -1, 0
	ctx.rounds = 0
	ctx.levelCost = ctx.levelCost[:0]
	if ctx.dummyKeys == nil {
		ctx.dummyKeys = make(map[skipgraph.Key]struct{})
	}
	clear(ctx.dummyKeys)
}

// charge records that a list at the given level cost the given rounds.
// Lists of one level work in parallel, so a level costs its slowest list.
func (ctx *transformCtx) charge(level, rounds int) {
	i := level - ctx.alpha
	for len(ctx.levelCost) <= i {
		ctx.levelCost = append(ctx.levelCost, 0)
	}
	ctx.levelCost[i] = max(ctx.levelCost[i], rounds)
}

// release drops every node and state reference the context holds.
func (ctx *transformCtx) release() {
	ctx.u, ctx.v = nil, nil
	ctx.ents = recycle(ctx.ents)
	ctx.glowerOut = recycle(ctx.glowerOut)
	ctx.lalpha = recycle(ctx.lalpha)
	ctx.doomed = recycle(ctx.doomed)
	ctx.all = recycle(ctx.all)
	ctx.fresh = recycle(ctx.fresh)
	ctx.unplaced = recycle(ctx.unplaced)
}

func newMember(n *skipgraph.Node, s *nodeState) member {
	return member{n: n, s: s, key: n.Key(), lowestSplit: -1}
}

// add appends a participant and returns its ordinal.
func (ctx *transformCtx) add(n *skipgraph.Node, s *nodeState) int {
	ctx.ents = append(ctx.ents, newMember(n, s))
	return len(ctx.ents) - 1
}

// isReal reports whether ordinal o names a real member (not a dummy).
func (ctx *transformCtx) isReal(o int) bool { return o < ctx.m }

// newDummies returns the ordinal range of the dummies created so far.
func (ctx *transformCtx) newDummies() (lo, hi int) { return ctx.m + ctx.kept, len(ctx.ents) }

// ordOf returns the ordinal of a real member of l_alpha by binary search
// over the key-ordered members, and false for any other node.
func (ctx *transformCtx) ordOf(n *skipgraph.Node) (int, bool) {
	key := n.Key()
	i := sort.Search(ctx.m, func(i int) bool { return !ctx.ents[i].key.Less(key) })
	return i, i < ctx.m && ctx.ents[i].n == n
}

// oldT, oldG and oldBitsOf return member o's snapshot of its timestamps,
// group-ids and membership bits (level 1 first).
func (ctx *transformCtx) oldT(o int) []int64 {
	e := &ctx.ents[o]
	return ctx.oldWords[e.tOff : e.tOff+e.tLen]
}

func (ctx *transformCtx) oldG(o int) []int64 {
	e := &ctx.ents[o]
	return ctx.oldWords[e.tOff+e.tLen : e.tOff+e.tLen+e.gLen]
}

func (ctx *transformCtx) oldBitsOf(o int) []byte {
	e := &ctx.ents[o]
	return ctx.oldBits[e.bOff : e.bOff+e.bLen]
}

// oldGroup reads member o's pre-transformation group-id at a level; above
// the snapshot it is the highest assigned one.
func (ctx *transformCtx) oldGroup(o, level int) int64 {
	old := ctx.oldG(o)
	if level < len(old) {
		return old[level]
	}
	if len(old) > 0 {
		return old[len(old)-1]
	}
	return -1
}

// oldCommonPrefix returns the length of the longest common prefix of two
// real members' old membership vectors: alpha, which every member of l_alpha
// shares, plus the old levels above it at which they took the same side.
func (ctx *transformCtx) oldCommonPrefix(a, b int) int {
	if n := min(ctx.ents[a].oldSteps, ctx.ents[b].oldSteps); n <= 64 {
		return ctx.alpha + min(bits.TrailingZeros64(ctx.ents[a].oldPath^ctx.ents[b].oldPath), int(n))
	}
	x, y := ctx.oldBitsOf(a), ctx.oldBitsOf(b)
	n := min(len(x), len(y))
	for i := 0; i < n; i++ {
		if x[i] != y[i] {
			return i
		}
	}
	return n
}

// newCommonPrefix is oldCommonPrefix for the vectors the splits assigned:
// skipgraph.CommonPrefixLen of the two members' nodes once the splits are
// done, read off their paths.
func (ctx *transformCtx) newCommonPrefix(a, b int) int {
	x, y := &ctx.ents[a], &ctx.ents[b]
	if n := min(x.steps, y.steps); n <= 64 {
		return ctx.alpha + min(bits.TrailingZeros64(x.path^y.path), int(n))
	}
	return skipgraph.CommonPrefixLen(x.n, y.n)
}

// setBit assigns real member o its membership bit at bitLevel, the next
// level of its way down, and records the side in its path.
func (ctx *transformCtx) setBit(o, bitLevel int, side byte) {
	e := &ctx.ents[o]
	e.n.SetBit(bitLevel, side)
	if k := bitLevel - ctx.alpha - 1; k < 64 {
		e.path |= uint64(side) << k
	}
	e.steps = int32(bitLevel - ctx.alpha)
}

// recordOldPath fills real member o's oldPath and oldSteps from its
// snapshot of the old vector.
func (ctx *transformCtx) recordOldPath(o int) {
	e := &ctx.ents[o]
	old := ctx.oldBitsOf(o)
	e.oldSteps = int32(len(old) - ctx.alpha)
	for k, b := range old[ctx.alpha:min(len(old), ctx.alpha+64)] {
		e.oldPath |= uint64(b) << k
	}
}

// keyLess orders two members by key.
func (ctx *transformCtx) keyLess(a, b int) bool {
	return ctx.ents[a].key.Less(ctx.ents[b].key)
}

// gidTable maps the group-ids met while processing one list to dense
// indices 0, 1, 2, … in first-seen order, so per-group aggregates live in a
// slice. It is an open-addressing table whose slots carry the epoch that
// wrote them: reset is O(1), which matters because a transformation resets
// it once per list it splits.
type gidTable struct {
	slots []gidSlot // power-of-two length
	epoch uint32
	n     int
}

type gidSlot struct {
	gid   int64
	epoch uint32
	idx   int32
}

// reset empties the table and sizes it for up to n distinct ids.
func (t *gidTable) reset(n int) {
	size := 16
	for size < 2*n {
		size *= 2
	}
	t.epoch++
	if size > len(t.slots) || t.epoch == 0 {
		t.slots = make([]gidSlot, max(size, len(t.slots)))
		t.epoch = 1
	}
	t.n = 0
}

// index returns the dense index of gid, assigning the next one on first
// sight.
func (t *gidTable) index(gid int64) int {
	mask := uint64(len(t.slots) - 1)
	for h := (uint64(gid) * 0x9E3779B97F4A7C15) >> 32; ; h++ {
		s := &t.slots[h&mask]
		if s.epoch != t.epoch {
			*s = gidSlot{gid: gid, epoch: t.epoch, idx: int32(t.n)}
			t.n++
			return t.n - 1
		}
		if s.gid == gid {
			return int(s.idx)
		}
	}
}
