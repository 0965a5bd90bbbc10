package main

import (
	"fmt"
	"os"
	"sort"
	"time"
)

// guestClock measures time net of hypervisor steal: the time this guest
// actually had its CPUs. On a shared runner the hypervisor takes the CPU away
// in bursts of tens of milliseconds, and that is the dominant noise: six runs
// of identical work (route-zipf-n512, one seed) read 50.5, 49.3, 51.1, 43.1,
// 49.3 and 40.6 ops/s by the wall clock while /proc/stat showed 1, 1, 2, 9, 3
// and 11 % of the machine's ticks stolen, and 51.2, 49.8, 53.1, 52.0, 52.1 and
// 51.7 once the stolen time was taken out of the denominator. Steal lands on
// the critical path almost entirely — an idle vCPU accrues none, and in a
// closed loop whichever of daemon and client is running is what the other
// waits for — so guest time = wall time − stolen time.
//
// A sampler reads the machine's cumulative steal counter every couple of
// milliseconds and keeps the instants at which it moved. The counter counts
// whole 10 ms ticks of steal accumulated in nanoseconds, so a tick seen at
// instant t means 10 ms were stolen somewhere since the previous tick; the
// clock spreads them evenly over that interval. In a quiet second that is a
// 1 % correction to everything in it; in a burst, ticks come every 10-20 ms
// and the correction lands on the ops the burst delayed.
type guestClock struct {
	stat *os.File
	quit chan struct{}
	done chan struct{}
	err  error

	// at are the sampled instants kept — the first, every one that found the
	// counter moved, and the last — and ticks the counter's value at each.
	at    []time.Time
	ticks []float64
	guest []time.Duration // guest time from at[0] to at[i], filled by stop
}

// interval is a stretch of wall time, to be read on the guest clock.
type interval struct{ from, to time.Time }

const samplePeriod = 2 * time.Millisecond // a read of /proc/stat costs ~5 µs

func startGuestClock() (*guestClock, error) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return nil, err
	}
	c := &guestClock{stat: f, quit: make(chan struct{}), done: make(chan struct{})}
	first, err := c.read()
	if err != nil {
		f.Close()
		return nil, err
	}
	c.at, c.ticks = []time.Time{time.Now()}, []float64{first}
	go c.sample()
	return c, nil
}

// read returns the steal column of /proc/stat's aggregate line, in ticks.
func (c *guestClock) read() (float64, error) {
	var buf [256]byte // the aggregate line is the first and fits easily
	n, err := c.stat.ReadAt(buf[:], 0)
	if n == 0 {
		return 0, fmt.Errorf("reading /proc/stat: %w", err)
	}
	steal, _, err := parseStatHead(string(buf[:n]))
	return steal, err
}

func (c *guestClock) sample() {
	defer close(c.done)
	t := time.NewTicker(samplePeriod)
	defer t.Stop()
	for {
		select {
		case <-c.quit:
			return
		case <-t.C:
		}
		v, err := c.read()
		if err != nil {
			c.err = err
			return
		}
		if v != c.ticks[len(c.ticks)-1] {
			c.at, c.ticks = append(c.at, time.Now()), append(c.ticks, v)
		}
	}
}

// stop ends the sampling; the clock can be read only afterwards.
func (c *guestClock) stop() error {
	close(c.quit)
	<-c.done
	if c.err == nil {
		var v float64
		if v, c.err = c.read(); c.err == nil {
			c.at, c.ticks = append(c.at, time.Now()), append(c.ticks, v)
		}
	}
	c.stat.Close()
	c.guest = make([]time.Duration, len(c.at))
	for i := 1; i < len(c.at); i++ {
		wall := c.at[i].Sub(c.at[i-1])
		stolen := time.Duration((c.ticks[i] - c.ticks[i-1]) * tickMS * float64(time.Millisecond))
		// Both vCPUs stolen at once count twice in the machine-wide counter;
		// guest time still never runs backwards.
		c.guest[i] = c.guest[i-1] + max(wall-stolen, 0)
	}
	return c.err
}

// since returns the guest time from the clock's start to t.
func (c *guestClock) since(t time.Time) time.Duration {
	i := sort.Search(len(c.at), func(i int) bool { return c.at[i].After(t) })
	switch {
	case i == 0:
		return t.Sub(c.at[0])
	case i == len(c.at):
		return c.guest[i-1] + t.Sub(c.at[i-1])
	}
	seg := c.at[i].Sub(c.at[i-1])
	return c.guest[i-1] + time.Duration(float64(t.Sub(c.at[i-1]))*float64(c.guest[i]-c.guest[i-1])/float64(seg))
}

// over returns the guest time that passed during i.
func (c *guestClock) over(i interval) time.Duration { return c.since(i.to) - c.since(i.from) }
