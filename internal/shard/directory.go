package shard

import (
	"fmt"
	"sort"
)

// Directory is an immutable, epoch-stamped map from keys to shards. Shard i
// owns the contiguous half-open range [starts[i], starts[i+1]) with an
// implicit sentinel starts[S] = n. Routers load the current directory with
// one atomic pointer read; the rebalancer publishes a fresh value (never
// mutates a published one) with the epoch bumped, so in-flight routes keep a
// consistent view and can detect that they raced a migration.
type Directory struct {
	epoch  int64
	n      int64
	starts []int64 // ascending; starts[0] == 0
}

// newDirectory builds the epoch-0 directory with an even contiguous split of
// [0, n) into s shards.
func newDirectory(n int64, s int) *Directory {
	starts := make([]int64, s)
	for i := range starts {
		starts[i] = n * int64(i) / int64(s)
	}
	return &Directory{n: n, starts: starts}
}

// withBoundary returns a next-epoch copy with shard boundary b (the start of
// shard b, 1 ≤ b < S) moved to key start.
func (d *Directory) withBoundary(b int, start int64) (*Directory, error) {
	if b <= 0 || b >= len(d.starts) {
		return nil, fmt.Errorf("shard: boundary index %d out of range (1..%d)", b, len(d.starts)-1)
	}
	if start <= d.starts[b-1] || (b+1 < len(d.starts) && start >= d.starts[b+1]) || start >= d.n {
		return nil, fmt.Errorf("shard: boundary %d → %d would empty a shard", b, start)
	}
	starts := append([]int64(nil), d.starts...)
	starts[b] = start
	return &Directory{epoch: d.epoch + 1, n: d.n, starts: starts}, nil
}

// grown returns a copy whose key space is one key longer; the new key n
// falls into the last shard. No key changes owner, so the epoch stands.
func (d *Directory) grown() *Directory {
	return &Directory{epoch: d.epoch, n: d.n + 1, starts: d.starts}
}

// Epoch returns the directory epoch (0 for the initial split).
func (d *Directory) Epoch() int64 { return d.epoch }

// Shards returns the shard count.
func (d *Directory) Shards() int { return len(d.starts) }

// ShardOf returns the index of the shard owning key. The key must lie in
// [0, n); the service validates before resolving.
func (d *Directory) ShardOf(key int64) int {
	// First start strictly greater than key, minus one.
	return sort.Search(len(d.starts), func(i int) bool { return d.starts[i] > key }) - 1
}

// Range returns shard i's half-open key range [lo, hi).
func (d *Directory) Range(i int) (lo, hi int64) {
	lo = d.starts[i]
	hi = d.n
	if i+1 < len(d.starts) {
		hi = d.starts[i+1]
	}
	return lo, hi
}

// boundary is the key a cross-shard access crosses one edge of shard i
// through: the live key of the shard's range nearest that edge. An access
// toward higher keys leaves its source shard through the upper edge and
// enters its destination shard through the lower one. The edge key proper may
// have been deleted, removed or crashed; naming it regardless would turn
// every access across that edge into a miss. end is the access's own endpoint
// in this shard: while it is live the search reaches it at the latest, which
// makes the leg trivial. A dead endpoint is never its own boundary — its leg
// runs to whichever live key is nearest the edge, on either side of it, or,
// in a range with no live key at all, to any other key of the range — so the
// shard's step reports the miss as it does for any other leg.
func (d *Directory) boundary(live []bool, i int, upperEdge bool, end int64) int64 {
	lo, hi := d.Range(i)
	if upperEdge {
		for k := hi - 1; k >= lo; k-- {
			if live[k] {
				return k
			}
		}
	} else {
		for k := lo; k < hi; k++ {
			if live[k] {
				return k
			}
		}
	}
	if end == lo {
		return lo + 1
	}
	return lo
}

// leg is one shard-routable fragment of a request: an intra-shard pair.
type leg struct {
	shard    int
	src, dst int64
}

// splitLegs decomposes src→dst under this directory into its shard legs —
// the one rule the dispatcher and Distance share, so a measured distance
// follows the legs an op is served on. An intra-shard request is one leg; a
// cross-shard request is source→exit-boundary and entry-boundary→
// destination, with a trivial leg (the endpoint already is the boundary)
// omitted. live says which keys can be a boundary. legs[:n] are valid.
func (d *Directory) splitLegs(live []bool, src, dst int64) (legs [2]leg, n int, cross bool) {
	si, di := d.ShardOf(src), d.ShardOf(dst)
	if si == di {
		legs[0] = leg{shard: si, src: src, dst: dst}
		return legs, 1, false
	}
	higher := dst > src
	if exit := d.boundary(live, si, higher, src); exit != src {
		legs[n] = leg{shard: si, src: src, dst: exit}
		n++
	}
	if entry := d.boundary(live, di, !higher, dst); entry != dst {
		legs[n] = leg{shard: di, src: entry, dst: dst}
		n++
	}
	return legs, n, true
}
