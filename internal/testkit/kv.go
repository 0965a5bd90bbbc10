package testkit

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
)

// KV models a key space as a replay sees it. A key is present while its node
// is in the topology and alive, and holds a record once written: the value
// and the version its Put was stamped with. A crash loses the record at once
// and leaves a corpse, the dead node still in the graph until a repair
// splices it out; a delete or a removal leaves none.
type KV struct {
	keys []kvKey // present keys and corpses, ascending
}

type kvKey struct {
	key             int64
	present, corpse bool
	val             []byte // nil until written
	ver             int64
}

// Entry is one record as a read returns it.
type Entry struct {
	Key     int64
	Value   []byte
	Version int64
}

// NewKV returns the model of keys 0..n-1, all present, none written.
func NewKV(n int) *KV {
	m := &KV{keys: make([]kvKey, n)}
	for k := range m.keys {
		m.keys[k] = kvKey{key: int64(k), present: true}
	}
	return m
}

// find returns k's position in m.keys, or where it would go, and whether it
// is there.
func (m *KV) find(k int64) (int, bool) {
	return slices.BinarySearchFunc(m.keys, k, func(x kvKey, k int64) int { return cmp.Compare(x.key, k) })
}

func (m *KV) get(k int64) kvKey {
	if i, ok := m.find(k); ok {
		return m.keys[i]
	}
	return kvKey{key: k}
}

// set stores x, or drops its key when x is neither present nor a corpse.
func (m *KV) set(x kvKey) {
	i, ok := m.find(x.key)
	switch {
	case !x.present && !x.corpse:
		if ok {
			m.keys = slices.Delete(m.keys, i, i+1)
		}
	case ok:
		m.keys[i] = x
	default:
		m.keys = slices.Insert(m.keys, i, x)
	}
}

// Present reports whether k's node is in the topology and alive.
func (m *KV) Present(k int64) bool { return m.get(k).present }

// Corpse reports whether k crashed and its dead node awaits repair.
func (m *KV) Corpse(k int64) bool { return m.get(k).corpse }

// Join makes k present without a record.
func (m *KV) Join(k int64) { m.set(kvKey{key: k, present: true}) }

// Put makes k present and gives it the record (val, ver); a corpse of k is
// gone, repaired before the key rejoined.
func (m *KV) Put(k int64, val []byte, ver int64) {
	m.set(kvKey{key: k, present: true, val: val, ver: ver})
}

// Retire takes k out of the topology with its record: a delete or a removal,
// or — with corpse set — a crash.
func (m *KV) Retire(k int64, corpse bool) { m.set(kvKey{key: k, corpse: corpse}) }

// Bury records that k's corpse was repaired: its node left the graph.
func (m *KV) Bury(k int64) {
	if m.Corpse(k) {
		m.set(kvKey{key: k})
	}
}

// Keys returns the keys whose node the graph holds — the present keys and
// the corpses — ascending.
func (m *KV) Keys() []int64 { return m.filter(func(kvKey) bool { return true }) }

// Live returns the present keys, ascending.
func (m *KV) Live() []int64 { return m.filter(func(x kvKey) bool { return x.present }) }

// Corpses returns the crashed keys awaiting repair, ascending.
func (m *KV) Corpses() []int64 { return m.filter(func(x kvKey) bool { return x.corpse }) }

func (m *KV) filter(keep func(kvKey) bool) []int64 {
	var out []int64
	for _, x := range m.keys {
		if keep(x) {
			out = append(out, x.key)
		}
	}
	return out
}

// Scan returns the records of the keys ≥ start, ascending, at most limit.
func (m *KV) Scan(start int64, limit int) []Entry {
	var out []Entry
	i, _ := m.find(start)
	for _, x := range m.keys[i:] {
		if len(out) == limit {
			break
		}
		if x.val != nil {
			out = append(out, Entry{Key: x.key, Value: x.val, Version: x.ver})
		}
	}
	return out
}

// CheckGet compares a read of k — whether it found a record, and which —
// with the model.
func (m *KV) CheckGet(k int64, found bool, val []byte, ver int64) error {
	x := m.get(k)
	if found != (x.val != nil) {
		return fmt.Errorf("get %d: found=%v, model %v", k, found, x.val != nil)
	}
	if found && (!bytes.Equal(val, x.val) || ver != x.ver) {
		return fmt.Errorf("get %d: read (%q, v%d), model (%q, v%d)", k, val, ver, x.val, x.ver)
	}
	return nil
}

// CheckScan compares the entries of a scan from start with the limit with
// the model's: the same keys in ascending order, each with its record.
func (m *KV) CheckScan(got []Entry, start int64, limit int) error {
	want := m.Scan(start, limit)
	if len(got) != len(want) {
		return fmt.Errorf("scan %d limit %d: %d entries, model expects %d", start, limit, len(got), len(want))
	}
	for i, e := range got {
		w := want[i]
		if e.Key != w.Key || !bytes.Equal(e.Value, w.Value) || e.Version != w.Version {
			return fmt.Errorf("scan %d limit %d: entry %d is key %d (%q, v%d), model expects key %d (%q, v%d)",
				start, limit, i, e.Key, e.Value, e.Version, w.Key, w.Value, w.Version)
		}
	}
	return nil
}
