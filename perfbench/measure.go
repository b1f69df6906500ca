package main

import (
	"fmt"
	"io"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"fortress/internal/sig"
)

const (
	setupReps = 41              // deployments built per run; setup_s is their median
	rungDur   = time.Second     // length of one ramp rung
	readers   = 4               // concurrent read-back requests
	fanoutHz  = 2.0             // traced pass: sampled gets fanned out per second
	crashAt   = 0.3             // pb-failover: share of the window before the crash
	restartAt = 0.6             // pb-failover: share of the window before the restart
	recoverBy = 5 * time.Second // give up waiting for the restarted replica
)

type runConfig struct {
	def    workloadDef
	seed   uint64
	window time.Duration
	out    string
}

// measurement is everything one pass of a workload measured.
type measurement struct {
	def       workloadDef
	setup     []float64 // process CPU seconds per deployment
	setupWall []float64 // wall seconds per deployment
	newMS     []float64 // fortress.New alone, ms
	attempted int       // requests in the measured window plus read-backs (campaign: repetitions)
	failed    int       // of attempted, plus lost writes
	lost      int
	problems  []string // failed correctness checks

	issued     int // requests (campaign steps) started in the measured window
	ops        int // of issued, those completed
	cpu        time.Duration
	allocBytes uint64
	gcFrac     float64
	heap       []float64 // live heap samples over the window, MiB
	lat        []float64 // latency of each answered request (campaign: step), ms
	lags       []float64 // pacer lateness, ms
	backlogMax int64
	retried    int // requests in the measured window answered only on a retry
	reg        counts

	maxRate   float64
	rungs     []rung
	unavail   float64 // ms
	recoverMS float64
	restartMS float64

	phases []*phase
	stages []string // wall time of each stage of the pass, for the log

	campaignS     float64 // wall time of the campaign cell's first execution
	steps         uint64
	rerandomizeMS []float64
	snapshotBytes int
}

func (m *measurement) stage(name string, since time.Time) {
	m.stages = append(m.stages, fmt.Sprintf("%s %.2fs", name, time.Since(since).Seconds()))
}

func (m *measurement) correct() bool { return len(m.problems) == 0 }

func (m *measurement) fail(format string, args ...any) {
	if len(m.problems) < 20 {
		m.problems = append(m.problems, fmt.Sprintf(format, args...))
	}
}

// measure runs one pass of the workload. With a tracer it also records a
// span around every call into a layer and runs the per-layer probes.
// The rate ramp runs only when withRamp is set.
func measure(cfg runConfig, tr *tracer, withRamp bool) (*measurement, error) {
	if cfg.def.campaign {
		return measureCampaign(cfg, tr)
	}
	return measureOpenLoop(cfg, tr, withRamp)
}

// deployTimed builds setupReps deployments, keeps the last and records
// what each cost from fortress.New until every group had answered: its
// process CPU time, which host steal time does not inflate, and its wall
// time.
func deployTimed(cfg runConfig, m *measurement) (*deployment, error) {
	var d *deployment
	for i := 0; i < setupReps; i++ {
		if d != nil {
			d.stop()
		}
		p0, t0 := readProc(), time.Now()
		var err error
		d, err = deploy(cfg.def, cfg.seed, runtime.GOMAXPROCS(0), cfg.out)
		if err != nil {
			return nil, err
		}
		m.setupWall = append(m.setupWall, time.Since(t0).Seconds())
		m.setup = append(m.setup, (readProc().cpu - p0.cpu).Seconds())
		m.newMS = append(m.newMS, ms(d.newDur))
	}
	return d, nil
}

func measureOpenLoop(cfg runConfig, tr *tracer, withRamp bool) (*measurement, error) {
	def := cfg.def
	m := &measurement{def: def}
	d, err := deployTimed(cfg, m)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	arrs, err := schedule(cfg.seed, def.baseRate, cfg.window, def.keys, def.readFrac)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	regBefore := d.reg.Snapshot()
	p0 := readProc()
	heap := startHeapSampler()
	start := time.Now().Add(5 * time.Millisecond)
	var fo *failover
	if def.failover {
		if fo, err = d.startFailover(start, cfg.window); err != nil {
			heap.finish()
			return nil, err
		}
	}
	var fan *fanouts
	if tr != nil {
		fan = d.startFanouts(tr, max(1, int(def.baseRate*def.readFrac/fanoutHz)))
	}
	base := d.runPhase(arrs, 0, start, tr, fan)
	p1 := readProc()
	m.heap = heap.finish()
	m.reg = diff(regBefore, d.reg.Snapshot())
	if fo != nil {
		if err := fo.wait(m, base); err != nil {
			m.fail("failover: %v", err)
		}
	}
	if fan != nil {
		if err := fan.wait(); err != nil {
			m.fail("traced fan-out: %v", err)
		}
	}
	m.lat, m.failed = base.latencies()
	m.attempted = len(base.ops)
	m.issued, m.ops = len(base.ops), len(m.lat)
	m.cpu = p1.cpu - p0.cpu
	m.allocBytes = p1.totalAlloc - p0.totalAlloc
	m.gcFrac = ratio(p1.gcCPU-p0.gcCPU, p1.allCPU-p0.allCPU)
	for _, l := range base.lags {
		m.lags = append(m.lags, ms(l))
	}
	m.backlogMax = base.backlogMax
	for i := range base.ops {
		if base.ops[i].ok && base.ops[i].tries > 1 {
			m.retried++
		}
	}
	m.phases = []*phase{base}

	if def.ramp && withRamp {
		next := len(arrs)
		m.maxRate, m.rungs, err = ramp(def.baseRate, rungOf(def.baseRate, base).passes(), func(k int, rate float64) (rung, error) {
			arrs, err := schedule(cfg.seed+uint64(k)*0x9e3779b97f4a7c15, rate, rungDur, def.keys, def.readFrac)
			if err != nil {
				return rung{}, err
			}
			p := d.runPhase(arrs, next, time.Now().Add(time.Millisecond), nil, nil)
			next += len(arrs)
			m.phases = append(m.phases, p)
			return rungOf(rate, p), nil
		})
		if err != nil {
			return nil, err
		}
	}

	m.stage("measured window and ramp", start)
	d.sys.Net().SetLinkDelay(0)
	t0 := time.Now()
	rb := d.readBack(tr)
	m.stage("read-back", t0)
	m.attempted += len(rb)
	m.check(m.phases, rb)
	m.failed += m.lost

	if tr != nil {
		if m.snapshotBytes, err = probeService(tr, def.keys, 200); err != nil {
			return nil, err
		}
		if err := probeNetsim(tr, 500); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// readBack reads every key once after the measured window.
func (d *deployment) readBack(tr *tracer) []op {
	ops := make([]op, d.def.keys)
	var wg sync.WaitGroup
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := d.clients[w%len(d.clients)]
			for k := w; k < len(ops); k += readers {
				o := &ops[k]
				o.id, o.key, o.read, o.due = fmt.Sprintf("readback-%d", k), keyName(k), true, time.Now()
				issue(c, o, tr)
			}
		}()
	}
	wg.Wait()
	return ops
}

// check verifies every answer: each get returned a value some write to its
// key produced, and each key's read-back value is one that no acknowledged
// write strictly follows. Each key that fails the latter is a lost write.
func (m *measurement) check(phases []*phase, readBack []op) {
	writes := map[string][]write{}
	for k := 0; k < m.def.keys; k++ {
		writes[keyName(k)] = []write{{value: preloadValue(k), acked: true}}
	}
	for _, p := range phases {
		for i := range p.ops {
			o := &p.ops[i]
			if !o.read {
				writes[o.key] = append(writes[o.key], write{value: o.value, invoke: o.due, ret: o.done, acked: o.ok})
			}
		}
	}
	for _, p := range phases {
		for i := range p.ops {
			o := &p.ops[i]
			if o.bad {
				m.fail("%s: %v", o.id, o.err)
			}
			if o.read && o.ok && (!o.found || !produced(writes[o.key], o.got, o.done)) {
				m.fail("%s: get %s returned %q, which no write to it produced", o.id, o.key, o.got)
			}
		}
	}
	for i := range readBack {
		o := &readBack[i]
		switch {
		case !o.ok:
			m.failed++
			m.fail("%s: read-back of %s failed: %v", o.id, o.key, o.err)
		case !o.found || !legalFinal(writes[o.key], o.got):
			m.lost++
			m.fail("%s: %s reads %q after the run: an acknowledged write was lost", o.id, o.key, o.got)
		}
	}
}

// failover crashes group 0's PB primary and later restarts it, on the
// phase's clock, while the load keeps arriving.
type failover struct {
	crashT   time.Time
	restartT time.Time
	done     chan struct{}
	err      error
	restartD time.Duration
	recoverD time.Duration
}

func (d *deployment) startFailover(start time.Time, window time.Duration) (*failover, error) {
	victim, err := d.primary()
	if err != nil {
		return nil, err
	}
	f := &failover{done: make(chan struct{})}
	go func() {
		defer close(f.done)
		time.Sleep(time.Until(start.Add(time.Duration(crashAt * float64(window)))))
		f.crashT = time.Now()
		if f.err = d.sys.CrashServer(victim); f.err != nil {
			return
		}
		time.Sleep(time.Until(start.Add(time.Duration(restartAt * float64(window)))))
		t0 := time.Now()
		f.restartT = t0
		if f.err = d.sys.RestartServer(victim); f.err != nil {
			return
		}
		f.restartD = time.Since(t0)
		for d.server(victim).Executed() < d.frontier(victim) {
			if time.Since(t0) > recoverBy {
				f.err = fmt.Errorf("restarted server %d still behind its group after %v", victim, recoverBy)
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
		f.recoverD = time.Since(t0)
	}()
	return f, nil
}

// wait collects the failover timings: the longest gap between consecutive
// successful completions while the primary was down (ending after the
// crash and starting before the restart), and how long recovery took.
func (f *failover) wait(m *measurement, p *phase) error {
	<-f.done
	if f.err != nil {
		return f.err
	}
	m.restartMS, m.recoverMS = ms(f.restartD), ms(f.recoverD)
	var done []time.Time
	for i := range p.ops {
		if p.ops[i].ok {
			done = append(done, p.ops[i].done)
		}
	}
	sort.Slice(done, func(i, j int) bool { return done[i].Before(done[j]) })
	for i := 1; i < len(done); i++ {
		if done[i].After(f.crashT) && done[i-1].Before(f.restartT) {
			m.unavail = max(m.unavail, ms(done[i].Sub(done[i-1])))
		}
	}
	return nil
}

// fanouts runs the traced pass's pb fan-out probes on sampled gets.
type fanouts struct {
	d     *deployment
	tr    *tracer
	every int
	keys  *sig.KeyPair
	wg    sync.WaitGroup
	mu    sync.Mutex
	n     int
	err   error
}

func (d *deployment) startFanouts(tr *tracer, every int) *fanouts {
	kp, err := sig.NewKeyPair()
	return &fanouts{d: d, tr: tr, every: every, keys: kp, err: err}
}

// sample fans out a fresh get of o's key when o is a sampled get.
func (f *fanouts) sample(o *op) {
	if f == nil || !o.read || f.keys == nil {
		return
	}
	f.mu.Lock()
	f.n++
	n := f.n
	f.mu.Unlock()
	if n%f.every != 0 {
		return
	}
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		if err := f.d.fanout("fanout-"+o.id, o.key, f.tr, f.keys); err != nil {
			f.mu.Lock()
			f.err = err
			f.mu.Unlock()
		}
	}()
}

func (f *fanouts) wait() error {
	f.wg.Wait()
	return f.err
}

// endToEnd is the untraced run's bounded end-to-end metrics: the ones
// host steal time does not move (CPU and memory per unit of work) and the
// set-up time.
func endToEnd(m *measurement) map[string]metric {
	return map[string]metric{
		"setup_s":       {medianOf(m.setup), "s"},
		"cpu_ms_per_op": {ratio(ms(m.cpu), float64(m.ops)), "ms"},
		"heap_live_mb":  {medianOf(m.heap), "MB"},
	}
}

func (m *measurement) report(metrics map[string]metric) report {
	return report{Correct: m.correct(), Attempted: m.attempted, Failed: m.failed, Metrics: metrics}
}

// describe prints the run's context: sample counts behind each percentile,
// generator health, the ramp and any failed check.
func (m *measurement) describe(w io.Writer) {
	med, high := summarize(append([]float64(nil), m.lat...))
	fmt.Fprintf(w, "# latency: p50 of %d samples = %.3f ms; p%d (highest with %d beyond) = %.3f ms\n",
		med.N, med.Value, high.Pct, minBeyond, high.Value)
	if len(m.lags) > 0 {
		_, lag := summarize(append([]float64(nil), m.lags...))
		fmt.Fprintf(w, "# generator: lag p%d = %.3f ms over %d arrivals, backlog max %d\n", lag.Pct, lag.Value, lag.N, m.backlogMax)
	}
	for _, r := range m.rungs {
		fmt.Fprintf(w, "# ramp: %.1f req/s p%d=%.2f ms (n=%d) outstanding=%d pass=%v\n", r.rate, r.tail.Pct, r.tail.Value, r.tail.N, r.backlogEnd, r.passes())
	}
	if len(m.phases) > 0 {
		fmt.Fprintf(w, "# p50 ms by second of the window: %s\n", fmtList(m.phases[0].p50BySecond()))
	}
	fmt.Fprintf(w, "# setup: CPU %s s, wall %s s, fortress.New %s ms\n", fmtList(m.setup), fmtList(m.setupWall), fmtList(m.newMS))
	if len(m.stages) > 0 {
		fmt.Fprintf(w, "# stages: %s\n", strings.Join(m.stages, ", "))
	}
	fmt.Fprintf(w, "# attempted=%d failed=%d lost_writes=%d answered_on_retry=%d\n", m.attempted, m.failed, m.lost, m.retried)
	shown := 0
	for _, p := range m.phases {
		for i := range p.ops {
			if o := &p.ops[i]; !o.ok && shown < 5 {
				shown++
				fmt.Fprintf(w, "# failed: %s due +%.0f ms after %.1f ms: %v\n", o.id, ms(o.due.Sub(p.start)), ms(o.latency()), o.err)
			}
		}
	}
	for _, p := range m.problems {
		fmt.Fprintf(w, "# CHECK FAILED: %s\n", p)
	}
}

// perLayer assembles the per-layer metrics: span timings from the traced
// pass, registry-derived counts and end-to-end context from the untraced.
func perLayer(plain, traced *measurement, tr *tracer) map[string]metric {
	st := tr.selfTimes()
	medSelf := func(name string) float64 {
		if lt, ok := st[name]; ok {
			return medianOf(lt.self)
		}
		return 0
	}
	medDur := func(name string) float64 {
		if lt, ok := st[name]; ok {
			return medianOf(lt.dur)
		}
		return 0
	}
	c := plain.reg
	ops := float64(plain.issued)
	get := func(n string) float64 { return float64(c.counters[n]) }
	med, high := summarize(append([]float64(nil), plain.lat...))
	_, lag := summarize(append([]float64(nil), plain.lags...))
	cpuPlain := ratio(ms(plain.cpu), float64(plain.ops))
	cpuTraced := ratio(ms(traced.cpu), float64(traced.ops))
	// Every PB update is counted once by the primary that executes it (one
	// per request) and once by each backup that installs it; only the
	// primary counts a fast (spliced) delta.
	updates := get("pb_updates_delta_total") + get("pb_updates_checkpoint_total")
	installs := max(0, updates-ops)
	leaseReads := get("smr_lease_reads_total")
	stepMS := 0.0
	if plain.def.campaign {
		stepMS = med.Value
	}

	out := map[string]metric{
		"heap_peak_mb": {slices.Max(plain.heap), "MB"},
		"lat_p50_ms":   {med.Value, "ms"},
		"lat_p99_ms":   {high.Value, "ms"},
		"max_rate_rps": {plain.maxRate, "1/s"},
		"unavail_ms":   {plain.unavail, "ms"},
		"recover_ms":   {plain.recoverMS, "ms"},
		"campaign_s":   {plain.campaignS, "s"},
		"fail_ratio":   {ratio(float64(plain.failed), float64(plain.attempted)), "ratio"},
		"lost_writes":  {float64(plain.lost), "count"},
		"lat.samples":  {float64(high.N), "count"},
		"lat.tail_pct": {float64(high.Pct), "pct"},

		"proxy.fanout_per_op":     {ratio(get("proxy_requests_total"), ops), "count"},
		"proxy.no_response_ratio": {ratio(get("proxy_no_response_total"), get("proxy_requests_total")), "ratio"},
		"proxy.self_ms":           {(medDur("proxy.invoke") - medDur("pb.fanout")) / 1e3, "ms"},
		"proxy.retried_ops":       {float64(plain.retried), "count"},

		"sig.sign_us":          {medSelf("sig.sign"), "us"},
		"sig.verify_us":        {medSelf("sig.verify"), "us"},
		"sig.oversign_us":      {medSelf("sig.oversign"), "us"},
		"sig.verify_doubly_us": {medSelf("sig.verify_doubly"), "us"},

		"netsim.rtt_us":  {medSelf("netsim.rtt"), "us"},
		"netsim.dial_us": {medSelf("netsim.dial"), "us"},

		"core.inbound_per_op":    {ratio(get("core_inbound_messages_total"), ops), "count"},
		"core.flush_msgs_per_op": {ratio(get("core_flush_messages_total"), ops), "count"},
		"core.batch_size":        {ratio(get("core_flush_messages_total"), get("core_flush_batches_total")), "count"},
		"core.send_failures":     {get("core_peer_send_failures_total"), "count"},

		"pb.fanout_ms":        {medDur("pb.fanout") / 1e3, "ms"},
		"pb.checkpoint_ratio": {ratio(get("pb_updates_checkpoint_total"), updates), "ratio"},
		"pb.delta_fast_ratio": {ratio(get("pb_updates_delta_fast_total"), ops), "ratio"},
		"pb.resyncs_per_kop":  {1000 * ratio(get("pb_resync_retransmit_total")+get("pb_resync_checkpoint_total"), ops), "count"},
		"pb.ack_stall_p99_ms": {c.quantileMS("pb_ack_stall_ns", 0.99), "ms"},

		"smr.lease_hit_ratio": {ratio(leaseReads, leaseReads+get("smr_ordered_read_fallbacks_total")), "ratio"},
		"smr.catchups":        {get("smr_catchup_starts_total"), "count"},
		"smr.lease_expiries":  {get("smr_lease_expiries_total"), "count"},

		"service.apply_us":    {medSelf("service.apply"), "us"},
		"service.restore_us":  {medSelf("service.restore"), "us"},
		"service.snapshot_kb": {float64(traced.snapshotBytes) / 1024, "KiB"},

		"store.appends_per_op": {ratio(get("store_appends_total"), ops), "count"},
		"store.fsync_p50_ms":   {c.quantileMS("store_sync_ns", 0.50), "ms"},
		"store.fsync_p99_ms":   {c.quantileMS("store_sync_ns", 0.99), "ms"},

		"fortress.new_ms":         {medianOf(plain.newMS), "ms"},
		"fortress.restart_ms":     {plain.restartMS, "ms"},
		"fortress.rerandomize_ms": {medianOf(traced.rerandomizeMS), "ms"},

		"attack.steps":   {float64(plain.steps), "count"},
		"attack.step_ms": {stepMS, "ms"},

		"workload.gen_lag_p99_ms": {lag.Value, "ms"},
		"workload.backlog_max":    {float64(plain.backlogMax), "count"},

		"runtime.alloc_kb_per_op": {ratio(float64(plain.allocBytes)/1024, float64(plain.ops)), "KiB"},
		"runtime.gc_cpu_frac":     {plain.gcFrac, "ratio"},

		"trace.overhead_pct": {100 * ratio(cpuTraced-cpuPlain, cpuPlain), "%"},
	}
	// Σ calls-per-op × per-call time over the layers whose call counts the
	// registry gives: every forwarded request is signed by each server of
	// its group, verified and over-signed by its proxy, and double-verified
	// by the client; every PB update a backup installs is one KV.Restore;
	// every forwarded request is one client↔proxy and one proxy↔server
	// round trip per server.
	if !plain.def.campaign {
		fwd := ratio(get("proxy_requests_total"), ops)
		perGroup := float64(servers)
		attributed := fwd*perGroup*(medSelf("sig.sign")+medSelf("sig.verify")) +
			fwd*(medSelf("sig.oversign")+medSelf("sig.verify_doubly")) +
			ratio(installs, ops)*medSelf("service.restore") +
			fwd*(1+perGroup)*medSelf("netsim.rtt")
		out["trace.unattributed_pct"] = metric{100 * (1 - ratio(attributed/1e3, cpuPlain)), "%"}
	} else {
		out["trace.unattributed_pct"] = metric{100 * (1 - ratio(medianOf(traced.rerandomizeMS), cpuPlain)), "%"}
	}
	return out
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, " ")
}
