package skipgraph

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// TestRealKeysInRange: extraction respects the half-open bounds, skips
// dummies, and stays in ascending order.
func TestRealKeysInRange(t *testing.T) {
	g := NewRandom(16, 3)
	// Plant a dummy between 7 and 8, the way balance repair does.
	dm := NewDummy(Key{Primary: 7, Minor: 1}, 100)
	g.SpliceIn(dm)

	got := g.RealKeysInRange(KeyOf(5), KeyOf(12))
	want := []int64{5, 6, 7, 8, 9, 10, 11}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("RealKeysInRange(5, 12) = %v, want %v", got, want)
	}
	if got := g.RealKeysInRange(KeyOf(16), KeyOf(99)); got != nil {
		t.Errorf("out-of-range extraction = %v, want nil", got)
	}
	if got := g.RealKeysInRange(KeyOf(0), KeyOf(1)); !reflect.DeepEqual(got, []int64{0}) {
		t.Errorf("single-key extraction = %v, want [0]", got)
	}

	min, max, ok := g.RealKeyBounds()
	if !ok || min != 0 || max != 15 {
		t.Errorf("RealKeyBounds = (%d, %d, %v), want (0, 15, true)", min, max, ok)
	}
}

// TestRouteKeysUnknownKeySentinel: a missing endpoint wraps ErrUnknownKey so
// the sharded router can distinguish "key migrated away" from structural
// failures.
func TestRouteKeysUnknownKeySentinel(t *testing.T) {
	g := NewRandom(8, 1)
	if _, err := g.RouteKeys(KeyOf(99), KeyOf(1)); !errors.Is(err, ErrUnknownKey) {
		t.Errorf("unknown source: err = %v, want ErrUnknownKey", err)
	}
	if _, err := g.RouteKeys(KeyOf(1), KeyOf(99)); !errors.Is(err, ErrUnknownKey) {
		t.Errorf("unknown destination: err = %v, want ErrUnknownKey", err)
	}
	if _, err := g.RouteKeys(KeyOf(1), KeyOf(2)); err != nil {
		t.Errorf("valid route errored: %v", err)
	}
}

// TestScanEntry holds the way ScanFrom, RealKeysInRange and
// RealEntriesInRange find their first node — through the key index when the
// start key is a node's, else by a search down from the head or from the
// start's real node — to a linear filter of the node order, and GetValue to
// the record of the real node keyed exactly on the probe (none for a
// dummy's key, even under a real node that holds a value). The graph has
// gaps between its keys, dummies under a live primary (20) and under one
// whose real node has left (40), crashed nodes and keys without values; the
// probes cover every primary from below the first key to above the last, at
// minors that hit a real key, a dummy's key, a free key between two dummies
// and the end of the minor space. Everything is checked again right after a
// RespreadDummies has rekeyed the dummies in place.
func TestScanEntry(t *testing.T) {
	var nodes []*Node
	for p := int64(10); p <= 90; p += 10 {
		nodes = append(nodes, NewNode(KeyOf(p), p))
	}
	g := NewFromNodes(nodes, RandomBrancher(5))
	for i, minor := range []int32{1, 2, 7} {
		for _, p := range []int64{20, 40} {
			dm := NewDummy(Key{Primary: p, Minor: minor}, int64(100+10*i)+p)
			dm.SetBit(1, g.ByKey(KeyOf(p)).Bit(1))
			g.SpliceIn(dm)
		}
	}
	for _, n := range nodes {
		if n.key.Primary != 60 {
			g.SetValue(n, []byte(fmt.Sprint(n.key.Primary)), n.key.Primary)
		}
	}
	g.Remove(KeyOf(40))
	g.Crash(KeyOf(70))
	if err := g.Verify(); err != nil {
		t.Fatal(err)
	}

	check := func(step string) {
		t.Helper()
		order := g.Nodes()
		for p := int64(5); p <= 95; p++ {
			for _, minor := range []int32{0, 1, 5, 7, MinorSpace - 1} {
				start := Key{Primary: p, Minor: minor}
				var scan []Entry
				var keys []int64
				var entries []Entry
				var val []byte
				var ver int64
				var has bool
				hi := Key{Primary: p + 25}
				for _, n := range order {
					if n.key.Less(start) {
						continue
					}
					if n.key == start && !n.dummy && !n.dead && n.hasVal {
						val, ver, has = n.val, n.ver, true
					}
					if !n.dummy && !n.dead && n.hasVal && len(scan) < 3 {
						scan = append(scan, Entry{ID: n.key.Primary, Value: n.val, Version: n.ver, HasValue: true})
					}
					if !n.dummy && n.key.Less(hi) {
						keys = append(keys, n.key.Primary)
						entries = append(entries, Entry{ID: n.key.Primary, Value: n.val, Version: n.ver, HasValue: n.hasVal})
					}
				}
				if v, r, ok := g.GetValue(start); ok != has || r != ver || !reflect.DeepEqual(v, val) {
					t.Fatalf("%s: GetValue(%v) = (%q, %d, %v), want (%q, %d, %v)", step, start, v, r, ok, val, ver, has)
				}
				if got := g.ScanFrom(start, 3); !reflect.DeepEqual(got, scan) {
					t.Fatalf("%s: ScanFrom(%v, 3) = %v, want %v", step, start, got, scan)
				}
				if got := g.RealKeysInRange(start, hi); !reflect.DeepEqual(got, keys) {
					t.Fatalf("%s: RealKeysInRange(%v, %v) = %v, want %v", step, start, hi, got, keys)
				}
				if got := g.RealEntriesInRange(start, hi); !reflect.DeepEqual(got, entries) {
					t.Fatalf("%s: RealEntriesInRange(%v, %v) = %v, want %v", step, start, hi, got, entries)
				}
			}
		}
		if min, max, ok := g.RealKeyBounds(); !ok || min != 10 || max != 90 {
			t.Fatalf("%s: RealKeyBounds = (%d, %d, %v), want (10, 90, true)", step, min, max, ok)
		}
	}
	check("as built")
	for _, p := range []int64{20, 40} {
		at := g.from(Key{Primary: p, Minor: 1})
		if got := g.RespreadDummies(at); got != 3 {
			t.Fatalf("RespreadDummies under %d moved %d dummies, want 3", p, got)
		}
	}
	if err := g.Verify(); err != nil {
		t.Fatal(err)
	}
	check("after a respread")
	if got := g.ScanFrom(KeyOf(10), 0); got != nil {
		t.Fatalf("ScanFrom with limit 0 = %v, want nil", got)
	}
}

// TestVerifyChecksBaseList: the base list is the node order, so Verify must
// notice when the head, the count, the key index or the height histogram
// stops describing it — the index by missing a real node, naming the wrong
// one or one gone from the graph, or holding one the base list does not.
func TestVerifyChecksBaseList(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		corrupt    func(g *Graph)
	}{
		{"head past the first node", "left neighbour", func(g *Graph) { g.head = g.head.Next(0) }},
		{"count too small", "runs past", func(g *Graph) { g.n-- }},
		{"count too large", "N() says", func(g *Graph) { g.n++ }},
		{"node missing from the key index", "key index", func(g *Graph) { g.primaries[3-g.base] = nil }},
		{"key index naming another node", "key index", func(g *Graph) { g.primaries[3-g.base] = g.primary(4) }},
		{"key index naming a removed node", "key index", func(g *Graph) {
			gone := g.Remove(KeyOf(3))
			g.primaries[3-g.base] = gone
		}},
		{"key index past the base list", "key index", func(g *Graph) {
			g.primaries = append(g.primaries, NewNode(KeyOf(g.base+int64(len(g.primaries))), 99))
		}},
		{"keys out of order", "base order", func(g *Graph) {
			a, b := g.primary(3), g.primary(4)
			a.key, b.key = b.key, a.key
		}},
		{"stale height histogram", "height histogram", func(g *Graph) { g.tops = append(g.tops, 1) }},
	} {
		g := NewRandom(8, 2)
		if err := g.Verify(); err != nil {
			t.Fatal(err)
		}
		tc.corrupt(g)
		if err := g.Verify(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Verify = %v, want an error mentioning %q", tc.name, err, tc.want)
		}
	}
}

// RealKeysInRange returns the primary keys of the real (non-dummy) nodes
// whose key lies in [lo, hi), in ascending order: the key walk from g.from
// that TestScanEntry holds to a linear reference.
func (g *Graph) RealKeysInRange(lo, hi Key) []int64 {
	var keys []int64
	for n := g.from(lo); n != nil && n.key.Less(hi); n = n.Next(0) {
		if !n.dummy {
			keys = append(keys, n.key.Primary)
		}
	}
	return keys
}
