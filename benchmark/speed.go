package main

import "time"

// speedProbe measures how fast this machine is right now, so that times can
// be reported as they would read at a fixed reference speed. With no steal at
// all a shared runner still runs the same work at different speeds for
// minutes at a time (neighbours on the sibling hyperthread and in the shared
// cache): twelve back-to-back runs of one seed of route-zipf-n256 read 129 to
// 174 ops/s on the guest clock while their identical set-ups took 1.04 to
// 1.61 s, a 25 % spread (IQR over median) on both. The probe's reading moved
// with them — correlation 0.95 with the set-up time, 0.95 with the time per
// op — and dividing by it left 4 % on ops/s and 9 % on the set-up.
//
// The probe is a fixed kernel of the kind of work the daemon does — dependent
// loads over a table that overflows the private caches, then updates of a
// preallocated map — that allocates nothing, so its own garbage collector
// stays out of it. It is run for probeLength before each pass; a short probe
// (40 x 2 ms of allocation-heavy work was tried) reads mostly its own noise.
// It is part of the benchmark, not of the system under test: a change that
// makes the daemon faster leaves the probe alone, so the scale it sets is the
// same for a parent and its change.
type speedProbe struct {
	next  []uint32 // one cycle through 4 MiB
	table map[uint32]uint32
	sink  uint32
}

const (
	probeLength = time.Second
	// probeRef is the kernel's time at the reference speed: what it takes on
	// this kind of runner (2 vCPU Xeon, 2.1 GHz) while its neighbours are
	// quiet. Every reported time is scaled by probeRef over the measured
	// kernel time.
	probeRef = 13 * time.Millisecond
)

func newSpeedProbe() *speedProbe {
	const n = 1 << 20
	p := &speedProbe{next: make([]uint32, n), table: make(map[uint32]uint32, 1<<16)}
	for i := range p.next {
		p.next[i] = uint32(i)
	}
	x := uint32(2463534242)
	for i := n - 1; i > 0; i-- { // Sattolo's shuffle: a single cycle, so the walk never loops short
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		j := x % uint32(i)
		p.next[i], p.next[j] = p.next[j], p.next[i]
	}
	for i := uint32(0); i < 1<<16; i++ {
		p.table[i*2654435761] = i
	}
	return p
}

func (p *speedProbe) kernel() {
	at := uint32(0)
	for i := 0; i < 400000; i++ {
		at = p.next[at]
	}
	s := at
	for i := uint32(0); i < 100000; i++ {
		k := (i & 0xffff) * 2654435761
		p.table[k] += s
		s += p.table[k] ^ i
	}
	p.sink += s
}

// probeReading is one run of the probe: the kernel ran iters times over the
// interval.
type probeReading struct {
	interval
	iters int
}

func (p *speedProbe) run() probeReading {
	r := probeReading{interval: interval{from: time.Now()}}
	for time.Since(r.from) < probeLength {
		p.kernel()
		r.iters++
	}
	r.to = time.Now()
	return r
}

// speedScale is the factor that turns times measured while the readings were
// taken into times at the reference speed: below 1 when the machine was
// slower than the reference.
func speedScale(clock *guestClock, readings []probeReading) float64 {
	var spent time.Duration
	iters := 0
	for _, r := range readings {
		spent += clock.over(r.interval)
		iters += r.iters
	}
	return float64(probeRef) * float64(iters) / float64(spent)
}
