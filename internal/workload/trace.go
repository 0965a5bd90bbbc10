package workload

import "fmt"

// Op is the kind of one event in a dynamic workload trace.
type Op int

const (
	// OpRoute is a communication request between two live nodes — or, under
	// crash failures, from a live node toward a crashed one (a stale client
	// view probing an unavailable peer).
	OpRoute Op = iota
	// OpJoin adds a fresh node to the network.
	OpJoin
	// OpLeave removes a live node from the network (graceful departure).
	OpLeave
	// OpCrash fails a live node without a goodbye: no leave-side repair
	// runs, and the network discovers the failure only when a route
	// contacts the dead peer. Crashed ids are never reused.
	OpCrash
	// OpGet reads Dst's value as an access from Src — the same σ=(o,k)
	// access a route is, so it adjusts the topology too.
	OpGet
	// OpPut writes a value to Dst as an access from Src. A put of an absent
	// id joins it (a tracked join), so puts double as insertions. Trace
	// events carry no value bytes; the replayer synthesizes a deterministic
	// payload from (key, sequence).
	OpPut
	// OpDelete removes Dst from the keyspace — a tracked leave addressed by
	// key, requested by Src. Deleting an absent id is a legal no-op.
	OpDelete
	// OpScan reads up to Limit value-bearing entries starting at the first
	// key ≥ Dst. Read-only: it never adjusts the topology.
	OpScan
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case OpRoute:
		return "route"
	case OpJoin:
		return "join"
	case OpLeave:
		return "leave"
	case OpCrash:
		return "crash"
	case OpGet:
		return "get"
	case OpPut:
		return "put"
	case OpDelete:
		return "delete"
	case OpScan:
		return "scan"
	default:
		return fmt.Sprintf("op(%d)", int(o))
	}
}

// Event is one step of a dynamic workload: a routing request between two
// node identifiers (OpRoute, using Src/Dst), a membership change
// (OpJoin/OpLeave/OpCrash, using Node), or a KV operation (OpGet/OpPut/
// OpDelete use Src as the origin and Dst as the key; OpScan uses Dst as the
// start key and Limit as the entry cap). Identifiers are int64 to match the
// network packages; a trace over n initial nodes uses ids 0..n-1 for the
// starting membership and fresh ids ≥ n for joins.
type Event struct {
	Op    Op
	Src   int64 // OpRoute / KV op origin
	Dst   int64 // OpRoute destination; KV op key; OpScan start key
	Node  int64 // OpJoin / OpLeave / OpCrash subject
	Limit int   // OpScan entry cap, ≥ 1
}

// String implements fmt.Stringer.
func (e Event) String() string {
	switch e.Op {
	case OpRoute:
		return fmt.Sprintf("route(%d→%d)", e.Src, e.Dst)
	case OpGet, OpPut, OpDelete:
		return fmt.Sprintf("%s(%d→%d)", e.Op, e.Src, e.Dst)
	case OpScan:
		return fmt.Sprintf("scan(%d,limit=%d)", e.Dst, e.Limit)
	default:
		return fmt.Sprintf("%s(%d)", e.Op, e.Node)
	}
}

// Trace is an ordered event sequence produced by a TraceGenerator.
type Trace []Event

// Crashes returns the number of crash events.
func (tr Trace) Crashes() int {
	c := 0
	for _, e := range tr {
		if e.Op == OpCrash {
			c++
		}
	}
	return c
}

// Validate replays the trace against a three-state membership model (live,
// departed, crashed) and returns the first inconsistency: a route from
// anything but a live node, a route to an id that never was or gracefully
// left, a join of a live or crashed id (crashed ids are never reused), a
// leave of a non-live id, a crash of a non-live id (absent, departed, or
// already crashed), or a membership change that would drop the live
// population below two nodes (the minimum for routing). A route TO a crashed
// id is legal — it models a stale client probing an unavailable peer, the
// availability measure of the failure experiments. The initial membership is
// ids 0..n-1.
//
// KV events follow the data-plane contract: a get needs a live origin (any
// key is a legal target — absent and crashed keys read as misses); a put
// needs a live origin and a non-crashed key, and makes an absent key live (a
// put-join); a delete needs a live origin and a non-crashed key — deleting a
// live key obeys the same two-node floor as a leave and makes the key
// absent, deleting an absent key is a no-op; a scan needs a non-negative
// start key and a positive limit.
func (tr Trace) Validate(n int) error {
	if n < 2 {
		return fmt.Errorf("workload: trace needs at least 2 initial nodes, got %d", n)
	}
	live := make(map[int64]bool, n)
	crashed := make(map[int64]bool)
	for i := 0; i < n; i++ {
		live[int64(i)] = true
	}
	for i, e := range tr {
		switch e.Op {
		case OpRoute:
			if !live[e.Src] {
				return fmt.Errorf("workload: event %d %s routes from a non-live node", i, e)
			}
			if !live[e.Dst] && !crashed[e.Dst] {
				return fmt.Errorf("workload: event %d %s references a dead node", i, e)
			}
			if e.Src == e.Dst {
				return fmt.Errorf("workload: event %d %s is a self route", i, e)
			}
		case OpJoin:
			if live[e.Node] {
				return fmt.Errorf("workload: event %d %s joins a live node", i, e)
			}
			if crashed[e.Node] {
				return fmt.Errorf("workload: event %d %s reuses a crashed id", i, e)
			}
			live[e.Node] = true
		case OpLeave:
			if !live[e.Node] {
				return fmt.Errorf("workload: event %d %s leaves a dead node", i, e)
			}
			if len(live) <= 2 {
				return fmt.Errorf("workload: event %d %s would drop membership below 2", i, e)
			}
			delete(live, e.Node)
		case OpCrash:
			if crashed[e.Node] {
				return fmt.Errorf("workload: event %d %s crashes an already-crashed node", i, e)
			}
			if !live[e.Node] {
				return fmt.Errorf("workload: event %d %s crashes an absent node", i, e)
			}
			if len(live) <= 2 {
				return fmt.Errorf("workload: event %d %s would drop membership below 2", i, e)
			}
			delete(live, e.Node)
			crashed[e.Node] = true
		case OpGet:
			if !live[e.Src] {
				return fmt.Errorf("workload: event %d %s reads from a non-live origin", i, e)
			}
		case OpPut:
			if !live[e.Src] {
				return fmt.Errorf("workload: event %d %s writes from a non-live origin", i, e)
			}
			if crashed[e.Dst] {
				return fmt.Errorf("workload: event %d %s writes to a crashed key", i, e)
			}
			live[e.Dst] = true // a put of an absent key joins it
		case OpDelete:
			if !live[e.Src] {
				return fmt.Errorf("workload: event %d %s deletes from a non-live origin", i, e)
			}
			if crashed[e.Dst] {
				return fmt.Errorf("workload: event %d %s deletes a crashed key", i, e)
			}
			if live[e.Dst] {
				if len(live) <= 2 {
					return fmt.Errorf("workload: event %d %s would drop membership below 2", i, e)
				}
				delete(live, e.Dst)
			}
		case OpScan:
			if e.Dst < 0 {
				return fmt.Errorf("workload: event %d %s has a negative start key", i, e)
			}
			if e.Limit < 1 {
				return fmt.Errorf("workload: event %d %s needs limit ≥ 1", i, e)
			}
		default:
			return fmt.Errorf("workload: event %d has unknown op %d", i, int(e.Op))
		}
	}
	return nil
}

// TraceGenerator produces a dynamic workload: a trace with exactly m route
// events, interleaved with the generator's membership events, over an
// initial network of n nodes (ids 0..n-1).
type TraceGenerator interface {
	// Name identifies the generator in experiment tables.
	Name() string
	// Trace returns the event sequence, or an error for invalid (n, m).
	Trace(n, m int) (Trace, error)
}

// NoChurn wraps a plain request generator as a TraceGenerator with no
// membership events, the zero-churn baseline of every churn sweep.
type NoChurn struct {
	Base Generator // route traffic; defaults to Uniform{}
}

func (g NoChurn) base() Generator {
	if g.Base == nil {
		return Uniform{}
	}
	return g.Base
}

// Name implements TraceGenerator.
func (g NoChurn) Name() string { return "nochurn(" + g.base().Name() + ")" }

// Trace implements TraceGenerator.
func (g NoChurn) Trace(n, m int) (Trace, error) {
	reqs, err := Generate(g.base(), n, m)
	if err != nil {
		return nil, err
	}
	tr := make(Trace, len(reqs))
	for i, r := range reqs {
		tr[i] = Event{Op: OpRoute, Src: int64(r.Src), Dst: int64(r.Dst)}
	}
	return tr, nil
}

// membership tracks the live id set while a churn generator interleaves
// joins and leaves with a base request stream. Live ids are kept in id
// order so leave selection is deterministic and correlated departures can
// target key-adjacent nodes.
type membership struct {
	live   []int64 // sorted ascending
	nextID int64   // fresh id for the next join
	// recentCrashed is the window of recently crashed ids a stale route may
	// still target (bounded to staleWindow entries, oldest dropped first).
	recentCrashed []int64
}

func newMembership(n int) *membership {
	ms := &membership{live: make([]int64, n), nextID: int64(n)}
	for i := range ms.live {
		ms.live[i] = int64(i)
	}
	return ms
}

func (ms *membership) size() int { return len(ms.live) }

// join mints a fresh id, records it live, and returns the join event.
// Fresh ids only grow, so appending keeps the slice sorted.
func (ms *membership) join() Event {
	id := ms.nextID
	ms.nextID++
	ms.live = append(ms.live, id)
	return Event{Op: OpJoin, Node: id}
}

// leaveAt removes the live node at the given position (id order) and
// returns the leave event.
func (ms *membership) leaveAt(pos int) Event {
	id := ms.live[pos]
	ms.live = append(ms.live[:pos], ms.live[pos+1:]...)
	return Event{Op: OpLeave, Node: id}
}

// crashAt fails the live node at the given position (id order) and returns
// the crash event. The id moves to the recently-crashed window that stale
// routes may still target.
func (ms *membership) crashAt(pos int) Event {
	id := ms.live[pos]
	ms.live = append(ms.live[:pos], ms.live[pos+1:]...)
	ms.recentCrashed = append(ms.recentCrashed, id)
	if len(ms.recentCrashed) > staleWindow {
		ms.recentCrashed = ms.recentCrashed[len(ms.recentCrashed)-staleWindow:]
	}
	return Event{Op: OpCrash, Node: id}
}

// route maps a base request over the fixed index space [0, n) onto the
// current membership: index i addresses the i-th live node (mod size), so a
// skewed base workload keeps its skew — the hot indices follow whatever
// nodes currently occupy the hot positions. Returns false when the mapped
// endpoints collide (caller skips the base request).
func (ms *membership) route(r Request) (Event, bool) {
	src := ms.live[r.Src%len(ms.live)]
	dst := ms.live[r.Dst%len(ms.live)]
	if src == dst {
		return Event{}, false
	}
	return Event{Op: OpRoute, Src: src, Dst: dst}, true
}
