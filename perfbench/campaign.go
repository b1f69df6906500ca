package main

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"time"

	"fortress/internal/attack"
	"fortress/internal/fortress"
	"fortress/internal/keyspace"
	"fortress/internal/metrics"
	"fortress/internal/replica"
	"fortress/internal/service"
	"fortress/internal/xrand"
)

// The po-campaign cell: PB, proactive obfuscation (re-randomize every
// step), detector off, one paced indirect probe per step.
const (
	campaignChi    = 24
	checkReps      = 2 // repetitions executed twice, to check determinism
	campaignSteps  = 8
	campaignOmega  = 2
	campaignPacing = 1
	rerandomizeN   = 10 // traced pass: timed Rerandomize calls
	// campaignServerTimeout bounds each proxy→server interaction. A server
	// probe that crashes the primary is answered once a backup promotes,
	// one heartbeat timeout (200 ms) later; a probe the backups never
	// answer waits this long instead.
	campaignServerTimeout = 300 * time.Millisecond
)

// campaignTemplate is experiments.LiveCampaign's deployment with a shorter
// proxy→server deadline (see campaignServerTimeout) and 50 ms heartbeats
// instead of 10 ms, so idle heartbeats do not dominate a step's CPU.
func campaignTemplate() fortress.Config {
	return fortress.Config{
		Servers:           servers,
		Proxies:           proxies,
		Groups:            1,
		Backend:           replica.BackendPB,
		ServiceFactory:    func() service.Service { return service.NewKV() },
		HeartbeatInterval: 50 * time.Millisecond,
		HeartbeatTimeout:  200 * time.Millisecond,
		ServerTimeout:     campaignServerTimeout,
	}
}

// campaignRow is the deterministic outcome of a run of repetitions.
type campaignRow struct {
	Compromised uint64
	Lifetimes   []uint64
	Routes      []string
}

// stepClock is the campaign's step injector: it timestamps the start of
// every step, so a step's time is the gap to the next one in its
// repetition (a repetition's last step has no successor and is not timed).
type stepClock struct {
	mu    sync.Mutex
	last  time.Time
	steps int
	durs  []float64 // ms
	tr    *tracer
}

// forRep starts a repetition: its first step pairs with nothing before it.
// It also runs a collection with the repetition's deployment up, so the
// live heap the window samples is fresh: a campaign allocates too little
// for the collector to run more than once or twice a window on its own.
func (c *stepClock) forRep(rep int, _ *fortress.System, _ *xrand.RNG) attack.StepInjector {
	runtime.GC()
	c.mu.Lock()
	c.last = time.Time{}
	c.mu.Unlock()
	return c
}

func (c *stepClock) Advance(step uint64) error {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.last.IsZero() {
		c.durs = append(c.durs, ms(now.Sub(c.last)))
		c.tr.record("attack.step", fmt.Sprintf("step-%d", step-1), 0, c.last, now)
	}
	c.last = now
	c.steps++
	return nil
}

// measureCampaign runs the fixed-seed cell, sized so that it takes about
// the window (two repetitions per three seconds), and then its first
// checkReps repetitions again: a series splits its per-repetition streams
// in order, so the second execution must reproduce the first one's leading
// repetitions exactly. Both executions are measured; campaign_s is the
// first one's wall time.
func measureCampaign(cfg runConfig, tr *tracer) (*measurement, error) {
	m := &measurement{def: cfg.def}
	d, err := deployTimed(cfg, m)
	if err != nil {
		return nil, err
	}
	d.stop()
	space, err := keyspace.NewSpace(campaignChi)
	if err != nil {
		return nil, err
	}
	reg := metrics.New()
	before := reg.Snapshot()
	p0 := readProc()
	heap := startHeapSampler()
	reps := max(checkReps, int(2*cfg.window.Seconds()/3))
	var rows [2]campaignRow
	for run, n := range []int{reps, checkReps} {
		clock := &stepClock{tr: tr}
		sp := tr.begin("attack.campaign", fmt.Sprintf("run-%d", run), 0)
		t0 := time.Now()
		series, err := attack.CampaignSeries(campaignTemplate(), space, attack.SeriesConfig{
			Campaign: attack.CampaignConfig{
				OmegaDirect:   campaignOmega,
				OmegaIndirect: campaignPacing,
				MaxSteps:      campaignSteps,
				Rerandomize:   true,
			},
			Workers:      1,
			MakeInjector: clock.forRep,
			Customize:    func(_ int, c *fortress.Config) { c.Metrics = reg },
		}, n, xrand.New(cfg.seed))
		wall := time.Since(t0)
		tr.end(sp)
		if err != nil {
			heap.finish()
			return nil, fmt.Errorf("campaign: %w", err)
		}
		if run == 0 {
			m.campaignS = wall.Seconds()
		}
		m.lat = append(m.lat, clock.durs...)
		m.ops += clock.steps
		for _, r := range series.Results[:checkReps] {
			rows[run].Lifetimes = append(rows[run].Lifetimes, r.StepsElapsed)
			rows[run].Routes = append(rows[run].Routes, r.Route)
			if r.Compromised {
				rows[run].Compromised++
			}
		}
	}
	if !reflect.DeepEqual(rows[0], rows[1]) {
		m.fail("campaign seed %d: repetitions 0-%d gave %+v, then %+v", cfg.seed, checkReps-1, rows[0], rows[1])
	}
	p1 := readProc()
	m.heap = heap.finish()
	m.reg = diff(before, reg.Snapshot())
	m.steps = m.reg.counters["campaign_steps_total"]
	m.attempted = reps + checkReps
	m.issued = m.ops
	m.cpu = p1.cpu - p0.cpu
	m.allocBytes = p1.totalAlloc - p0.totalAlloc
	m.gcFrac = ratio(p1.gcCPU-p0.gcCPU, p1.allCPU-p0.allCPU)
	if tr != nil {
		if err := timeRerandomize(m, tr, space, cfg.seed); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// timeRerandomize times epoch rebuilds on an idle campaign deployment.
func timeRerandomize(m *measurement, tr *tracer, space *keyspace.Space, seed uint64) error {
	c := campaignTemplate()
	c.Space, c.Seed = space, seed
	sys, err := fortress.New(c)
	if err != nil {
		return err
	}
	defer sys.Stop()
	for i := 0; i < rerandomizeN; i++ {
		sp := tr.begin("fortress.rerandomize", "", 0)
		t0 := time.Now()
		err := sys.Rerandomize()
		m.rerandomizeMS = append(m.rerandomizeMS, ms(time.Since(t0)))
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	return nil
}
