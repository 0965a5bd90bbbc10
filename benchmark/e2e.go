package main

import (
	"fmt"
	"slices"
	"strconv"
	"sync"
	"time"

	"lsasg"
	"lsasg/internal/wire"
)

// harness holds what every run shares.
type harness struct {
	daemonBin string
	outDir    string // where traced runs write their span files
	// passTimeout bounds one daemon's life. A hung daemon must not hang the
	// run: past the timeout the child is killed, the pending reply fails,
	// and the pass is reported failed.
	passTimeout time.Duration
	kids        children
}

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
}

// result is one run of one workload.
type result struct {
	workload  string
	traced    bool
	metrics   []metric
	attempted int
	failed    int
	// problems lists everything that makes the run incorrect: failed ops,
	// oracle mismatches, a determinism mismatch, a failed verify or drain.
	problems []string
	// notes are run-health remarks (the noise guard) that do not fail a run.
	notes []string
}

func (r *result) correct() bool { return r.failed == 0 && len(r.problems) == 0 }

func (r *result) problemf(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *result) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{name, value, unit})
}

// daemonArgs is the child's command line: dsgserve's defaults (which are
// -batch 1 -window 1 -parallelism 1 at this commit) with a fixed daemon seed;
// only the traced child turns the daemon's own instrumentation on.
func (w workload) daemonArgs(metricsAddr string) []string {
	args := []string{"-seed", "1", "-n", strconv.Itoa(w.n), "-metrics", metricsAddr,
		"-trace=" + strconv.FormatBool(metricsAddr != "")}
	if w.shards > 1 {
		args = append(args, "-shards", strconv.Itoa(w.shards))
	}
	return args
}

// session is one live daemon with its connections and its oracle.
type session struct {
	d        *daemon
	watchdog *time.Timer
	cls      []*wire.Client
	model    *model

	attempted int
	failed    int
	firstFail string
}

// open spawns a daemon for w, connects, and waits for the first reply (a
// verify of the pristine topology).
func (h *harness) open(w workload, metricsAddr string) (*session, error) {
	d, err := h.kids.startDaemon(h.daemonBin, w.daemonArgs(metricsAddr)...)
	if err != nil {
		return nil, err
	}
	s := &session{d: d, watchdog: time.AfterFunc(h.passTimeout, d.kill), model: newModel(w.n)}
	for c := 0; c < w.conns; c++ {
		cl, err := wire.DialClient(d.addr, wire.WithPoolSize(1))
		if err != nil {
			s.abandon()
			return nil, fmt.Errorf("dial %s: %w", d.addr, err)
		}
		s.cls = append(s.cls, cl)
	}
	if err := s.cls[0].Verify(); err != nil {
		s.abandon()
		return nil, fmt.Errorf("verify of the fresh daemon: %w", err)
	}
	return s, nil
}

// exchange sends one op on connection c, times it with the client's
// stopwatch, and judges the reply against the oracle. Callers that share a
// session across goroutines count failures themselves.
func (s *session) exchange(c int, op lsasg.Op) (wire.Response, time.Duration, string) {
	req, _ := wire.RequestFor(op) // every generated kind maps
	t0 := time.Now()
	resp, err := s.cls[c].Do(req)
	lat := time.Since(t0)
	if err != nil {
		return resp, lat, fmt.Sprintf("op %+v: %v", op, err)
	}
	return resp, lat, s.model.check(op, resp)
}

func (s *session) count(bad string) {
	s.attempted++
	if bad != "" {
		if s.failed++; s.firstFail == "" {
			s.firstFail = bad
		}
	}
}

// abandon tears the session down without ceremony (error paths).
func (s *session) abandon() {
	s.watchdog.Stop()
	for _, cl := range s.cls {
		cl.Close()
	}
	s.d.kill()
}

// finish is the orderly end of a pass: the topology must verify and the
// daemon must drain cleanly on SIGTERM.
func (s *session) finish() error {
	defer s.watchdog.Stop()
	err := s.cls[0].Verify()
	for _, cl := range s.cls {
		cl.Close()
	}
	if err != nil {
		s.d.kill()
		return fmt.Errorf("verify after the pass: %w", err)
	}
	return s.d.drain()
}

// fingerprint is what must repeat exactly across a workload's passes.
type fingerprint struct {
	dist  []int64 // reply Distance of every fixed-count op, in order
	stats lsasg.Stats
}

func (a fingerprint) differs(b fingerprint) string {
	if !slices.Equal(a.dist, b.dist) {
		return "reply Distance sequences differ"
	}
	x, y := a.stats, b.stats
	if x.Requests != y.Requests || x.MeanRouteDistance != y.MeanRouteDistance || x.MaxRouteDistance != y.MaxRouteDistance ||
		x.TotalTransformRounds != y.TotalTransformRounds || x.DummyCount != y.DummyCount {
		return fmt.Sprintf("paper-cost counters differ: %+v vs %+v", x, y)
	}
	return ""
}

// setUp runs the fixed-count part of a pass — spawn, first reply, preload,
// warm-up — and then reads the paper-cost counters with one stats verb.
func (h *harness) setUp(w workload, in inputs) (*session, fingerprint, error) {
	s, err := h.open(w, "")
	if err != nil {
		return nil, fingerprint{}, err
	}
	var fp fingerprint
	for _, op := range in.fixed {
		resp, _, bad := s.exchange(0, op)
		s.count(bad)
		fp.dist = append(fp.dist, resp.Distance)
	}
	st, err := s.cls[0].Stats()
	if err != nil {
		s.abandon()
		return nil, fp, fmt.Errorf("stats after warm-up: %w", err)
	}
	fp.stats = st.Cum
	return s, fp, nil
}

// noisySteal is the stolen share of a run's timed phases past which the run
// says so. The guest clock takes the stolen time out, but what a burst does
// to the caches it cannot.
const noisySteal = 0.10

// noisySpeed is how far from the reference speed a run may find the machine
// before it says so; scan-n256-c2 slows down half again as much as the probe.
const noisySpeed = 0.20

// timedOut is what one pass's timed phase measured.
type timedOut struct {
	interval          // phase start to last reply
	ops      []opTime // every op of every connection
	daemonMS float64  // daemon user+system CPU over the phase
}

// opTime is the client's stopwatch reading for one op.
type opTime struct {
	start time.Time
	lat   time.Duration
}

// timed drives every connection closed-loop until the deadline: each sends
// its next op only when the previous reply has arrived.
func (s *session) timed(in inputs, length time.Duration) (timedOut, error) {
	type connOut struct {
		ops       []opTime
		failed    int
		firstFail string
	}
	outs := make([]connOut, len(s.cls))
	cpu0, err := procCPUms(s.d.pid)
	if err != nil {
		return timedOut{}, err
	}
	out := timedOut{interval: interval{from: time.Now()}}
	var wg sync.WaitGroup
	for c := range s.cls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			o := &outs[c]
			ops := in.conns[c]
			for i := 0; time.Since(out.from) < length; i++ {
				if i == len(ops) {
					i = 0
				}
				t0 := time.Now()
				_, lat, bad := s.exchange(c, ops[i])
				o.ops = append(o.ops, opTime{t0, lat})
				if bad != "" {
					if o.failed++; o.firstFail == "" {
						o.firstFail = bad
					}
				}
			}
		}()
	}
	wg.Wait()
	out.to = time.Now()
	cpu1, err := procCPUms(s.d.pid)
	out.daemonMS = cpu1 - cpu0
	for _, o := range outs {
		out.ops = append(out.ops, o.ops...)
		s.attempted += len(o.ops)
		s.failed += o.failed
		if s.firstFail == "" {
			s.firstFail = o.firstFail
		}
	}
	return out, err
}

// runE2E is one end-to-end run: `passes` passes, each on a fresh daemon, each
// the canonical fixed-count phase followed by an equal share of the timed
// seconds on a sub-seed of its own. The fixed-count phases must repeat
// exactly — replies and counters — and their median is setup_s. The timed
// phases are pooled: a self-adjusting topology's cost depends on its whole
// history, so one long phase measures one history; several independent
// histories per run average its luck out at no extra cost, since the set-ups
// have to be repeated anyway. Every time is read on the guest clock and
// scaled to the reference machine speed.
func (h *harness) runE2E(w workload, seed int64, seconds float64, passes int) result {
	res := result{workload: w.name}
	clock, err := startGuestClock()
	if err != nil {
		res.problemf("guest clock: %v", err)
		return res
	}
	probe := newSpeedProbe()
	var (
		speeds []probeReading
		setups []interval
		phases []timedOut
		peaks  []float64
		first  fingerprint
		share  = time.Duration(seconds / float64(passes) * float64(time.Second))
	)
	for p := 0; p < passes; p++ {
		fail := func(format string, args ...any) {
			res.problemf("pass %d: %s", p+1, fmt.Sprintf(format, args...))
		}
		in := w.gen(w, seed*int64(passes)+int64(p))
		speeds = append(speeds, probe.run())
		from := time.Now()
		s, fp, err := h.setUp(w, in)
		if err != nil {
			fail("set-up: %v", err)
			break
		}
		setups = append(setups, interval{from, time.Now()})
		if p == 0 {
			first = fp
		} else if diff := first.differs(fp); diff != "" {
			fail("the fixed-count phase is not deterministic: %s", diff)
		}
		tm, err := s.timed(in, share)
		if err != nil {
			fail("timed phase: %v", err)
		}
		phases = append(phases, tm)
		if peak, err := procPeakRSSMiB(s.d.pid); err != nil {
			fail("daemon memory: %v", err)
		} else {
			peaks = append(peaks, peak)
		}
		if st, err := s.cls[0].Stats(); err != nil {
			fail("stats after the timed phase: %v", err)
		} else if st.Cum.Requests != s.attempted {
			fail("daemon counted %d requests, the client sent %d", st.Cum.Requests, s.attempted)
		}
		res.attempted += s.attempted
		res.failed += s.failed
		if s.firstFail != "" {
			fail("%s", s.firstFail)
		}
		if err := s.finish(); err != nil {
			fail("%v", err)
		}
	}
	if err := clock.stop(); err != nil {
		res.problemf("guest clock: %v", err)
		return res
	}
	// ref reads an interval on the guest clock, at the reference speed.
	scale := speedScale(clock, speeds)
	ref := func(i interval) time.Duration { return time.Duration(float64(clock.over(i)) * scale) }
	var (
		setupS             []float64
		lats               []time.Duration
		timed, guest, wall time.Duration
		daemonMS           float64
	)
	for _, su := range setups {
		setupS = append(setupS, ref(su).Seconds())
	}
	for _, ph := range phases {
		timed += ref(ph.interval)
		guest += clock.over(ph.interval)
		wall += ph.to.Sub(ph.from)
		daemonMS += ph.daemonMS * scale
		for _, op := range ph.ops {
			lats = append(lats, ref(interval{op.start, op.start.Add(op.lat)}))
		}
	}
	if len(lats) == 0 || len(peaks) == 0 {
		res.problemf("the timed phases completed no op")
		return res
	}
	slices.Sort(lats)
	res.add("setup_s", median(setupS), "s")
	res.add("ops_per_s", float64(len(lats))/timed.Seconds(), "1/s")
	// The gated tail is p90, not p95 or p99: across ten seeds p95 spread up
	// to 24 % on the scan workload where p90 spread 19 %, and every workload
	// has at least eighty samples beyond p90 in a run.
	res.add("lat_p50_ms", ms(percentile(lats, 0.50)), "ms")
	res.add("lat_p90_ms", ms(percentile(lats, 0.90)), "ms")
	res.add("cpu_ms_per_op", daemonMS/float64(len(lats)), "ms")
	res.add("rss_peak_mib", median(peaks), "MiB")
	// Paper-cost counters over the canonical fixed-count phase: exact on a
	// given commit, whatever the seed, the machine's speed or its noise.
	st := first.stats
	res.add("route_dist_mean", st.MeanRouteDistance, "hops")
	res.add("route_dist_max", float64(st.MaxRouteDistance), "hops")
	res.add("transform_rounds_per_op", float64(st.TotalTransformRounds)/float64(st.Requests), "rounds")
	res.add("dummy_ratio", float64(st.DummyCount)/float64(w.n), "ratio")

	stolen := 1 - guest.Seconds()/wall.Seconds()
	spread := (slices.Max(setupS) - slices.Min(setupS)) / median(setupS)
	res.notes = append(res.notes, fmt.Sprintf("%d timed ops over %d pass(es) on %d conn(s): mean %.4g ms, p95 %.4g ms, p99 %.4g ms, %d samples beyond p90; a*H = %d; steal_ratio %.4f; machine speed %.3f of reference; pass_spread %.3f",
		len(lats), passes, w.conns, ms(mean(lats)), ms(percentile(lats, 0.95)), ms(percentile(lats, 0.99)),
		len(lats)-int(0.90*float64(len(lats))+0.999999), 4*st.Height, stolen, scale, spread))
	if stolen > noisySteal {
		res.notes = append(res.notes, fmt.Sprintf("noisy: the hypervisor withheld %.0f %% of the timed phases (taken out by the guest clock)", stolen*100))
	}
	if scale < 1-noisySpeed || scale > 1+noisySpeed {
		res.notes = append(res.notes, fmt.Sprintf("noisy: the machine ran at %.2f of the reference speed (scaled out by the speed probe)", scale))
	}
	if spread > 0.25 {
		res.notes = append(res.notes, fmt.Sprintf("noisy: set-up passes of identical work spread %.2f > 0.25", spread))
	}
	return res
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// percentile is the nearest-rank quantile of an ascending slice.
func percentile(sorted []time.Duration, q float64) time.Duration {
	i := int(q*float64(len(sorted))+0.999999) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func median(v []float64) float64 {
	s := slices.Sorted(slices.Values(v))
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func mean(d []time.Duration) time.Duration { return sum(d) / time.Duration(len(d)) }
