package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"fortress/internal/proxy"
	"fortress/internal/service"
	"fortress/internal/workload"
	"fortress/internal/xrand"
)

// arrival is one scheduled request: its offset from the phase start, the
// key ID it touches and whether it is a get.
type arrival struct {
	at   time.Duration
	key  int
	read bool
}

// schedule is the open-loop arrival stream of one phase: Poisson at rate
// requests per second for dur, keys Zipf(1.1) over keys IDs. It is a pure
// function of its arguments; the generator's unit step is one second.
func schedule(seed uint64, rate float64, dur time.Duration, keys int, readFrac float64) ([]arrival, error) {
	gen, err := workload.NewGen(workload.Spec{
		Clients:      1,
		Arrival:      workload.Poisson,
		Rate:         rate,
		KeyDist:      workload.Zipfian,
		Keys:         keys,
		ZipfS:        1.1,
		ReadFraction: readFrac,
	}, xrand.New(seed))
	if err != nil {
		return nil, err
	}
	var out []arrival
	var buf []workload.Request
	secs := dur.Seconds()
	for step := uint64(0); float64(step) < secs; step++ {
		buf = gen.Arrivals(step, buf[:0])
		for _, r := range buf {
			if r.T >= secs {
				return out, nil
			}
			out = append(out, arrival{at: time.Duration(r.T * float64(time.Second)), key: int(r.Key), read: r.Read})
		}
	}
	return out, nil
}

// op is one issued request and what came back.
type op struct {
	id    string
	key   string
	value string // the value a put writes
	read  bool
	due   time.Time
	done  time.Time
	ok    bool   // answered in time with a well-formed KV response
	bad   bool   // answered with a response a correct store never gives
	got   string // the value the response carried
	found bool
	err   error
	tries int // attempts sent, all under id
}

func (o *op) latency() time.Duration { return o.done.Sub(o.due) }

// phase is the outcome of driving one arrival stream.
type phase struct {
	start      time.Time
	ops        []op
	lags       []time.Duration // how late the pacer issued each request
	backlogMax int64
	backlogEnd int64 // requests outstanding when the last one was issued
}

// runPhase drives arrs open-loop from start: one pacing goroutine sleeps
// until each request is due and hands it to its own goroutine, round-robin
// over the client identities. Request n of the phase is numbered first+n.
// It returns once every request has completed or given up.
func (d *deployment) runPhase(arrs []arrival, first int, start time.Time, tr *tracer, fan *fanouts) *phase {
	p := &phase{start: start, ops: make([]op, len(arrs)), lags: make([]time.Duration, len(arrs))}
	var wg sync.WaitGroup
	var inflight atomic.Int64
	for i, a := range arrs {
		o := &p.ops[i]
		n := first + i
		o.id = fmt.Sprintf("req-%d", n)
		o.key = keyName(a.key)
		o.read = a.read
		if !a.read {
			o.value = writeValue(n)
		}
		o.due = start.Add(a.at)
		if wait := time.Until(o.due); wait > 0 {
			time.Sleep(wait)
		}
		p.lags[i] = time.Since(o.due)
		if cur := inflight.Add(1); cur > p.backlogMax {
			p.backlogMax = cur
		}
		c := d.clients[n%len(d.clients)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer inflight.Add(-1)
			issue(c, o, tr)
			fan.sample(o)
		}()
	}
	p.backlogEnd = inflight.Load()
	wg.Wait()
	return p
}

// issue sends one request through the proxy tier and records the outcome.
// An attempt that errors, as the requests in flight when a PB primary
// crashes do once a backup promotes, is sent again under the same request
// ID while the deadline has not passed; the servers' response cache keeps
// a retried write from applying twice. A request counts as answered only
// within reqDeadline of being due and only with a well-formed KV response;
// a put must echo its value.
func issue(c *proxy.Client, o *op, tr *tracer) {
	var raw []byte
	for {
		o.tries++
		sp := tr.begin("proxy.invoke", o.id, 0)
		if o.read {
			raw, o.err = c.InvokeRead(o.id, getBody(o.key))
		} else {
			raw, o.err = c.Invoke(o.id, putBody(o.key, o.value))
		}
		tr.end(sp)
		o.done = time.Now()
		if o.err == nil || o.latency() >= reqDeadline {
			break
		}
		time.Sleep(retryPause)
	}
	if o.err != nil {
		return
	}
	var r service.KVResponse
	if err := json.Unmarshal(raw, &r); err != nil {
		o.err, o.bad = fmt.Errorf("malformed KV response %q: %w", raw, err), true
		return
	}
	o.got, o.found = r.Value, r.Found
	switch {
	case !o.read && (!r.Found || r.Value != o.value):
		o.err, o.bad = fmt.Errorf("put %s=%s answered %+v", o.key, o.value, r), true
	case o.latency() > reqDeadline:
		o.err = fmt.Errorf("answered after the %v deadline", reqDeadline)
	default:
		o.ok = true
	}
}

// latencies returns the latencies in ms of the phase's answered requests
// and how many failed.
func (p *phase) latencies() (lat []float64, failed int) {
	for i := range p.ops {
		if p.ops[i].ok {
			lat = append(lat, ms(p.ops[i].latency()))
		} else {
			failed++
		}
	}
	return lat, failed
}

// rungOf judges a phase as a ramp rung; a failed request counts as missing
// the latency limit.
func rungOf(rate float64, p *phase) rung {
	lat, failed := p.latencies()
	for i := 0; i < failed; i++ {
		lat = append(lat, math.Inf(1))
	}
	_, high := summarize(lat)
	return rung{rate: rate, tail: high, backlogEnd: p.backlogEnd}
}

// rung is one step of the rate ramp.
type rung struct {
	rate       float64
	tail       tail  // highest percentile with minBeyond samples beyond it
	backlogEnd int64 // requests outstanding when the rung's last one was issued
}

const (
	rampLimitMS = 100.0 // latency limit on the rung's tail percentile
	rampFactor  = 1.1   // each rung offers 10% more than the last
	rampRungs   = 24    // at most this many rungs above the base rate
)

// passes reports whether the rung kept its tail within the limit without a
// growing backlog: at the end of a rung, at most limit's worth of arrivals
// may be outstanding (Little's law: more means requests wait longer than
// the limit on average).
func (r rung) passes() bool {
	if r.tail.Pct == 0 || r.tail.Value > rampLimitMS {
		return false
	}
	return float64(r.backlogEnd) <= math.Ceil(r.rate*rampLimitMS/1000)
}

// ramp offers base·1.1^k for k = 1, 2, ... through run and returns the
// highest rate whose rung passed, stopping at the first that did not; the
// base rate itself counts when baseOK. It returns 0 when no rate passed.
func ramp(base float64, baseOK bool, run func(k int, rate float64) (rung, error)) (float64, []rung, error) {
	if !baseOK {
		return 0, nil, nil
	}
	best, rate := base, base
	var rungs []rung
	for k := 1; k <= rampRungs; k++ {
		rate *= rampFactor
		r, err := run(k, rate)
		if err != nil {
			return best, rungs, err
		}
		rungs = append(rungs, r)
		if !r.passes() {
			break
		}
		best = rate
	}
	return best, rungs, nil
}

// p50BySecond is the median latency of the answered requests due in each
// second of the phase, to show whether latency drifts across the window.
func (p *phase) p50BySecond() []float64 {
	var buckets [][]float64
	for i := range p.ops {
		o := &p.ops[i]
		if !o.ok {
			continue
		}
		sec := int(o.due.Sub(p.start) / time.Second)
		for len(buckets) <= sec {
			buckets = append(buckets, nil)
		}
		buckets[sec] = append(buckets[sec], ms(o.latency()))
	}
	out := make([]float64, len(buckets))
	for i, b := range buckets {
		out[i] = medianOf(b)
	}
	return out
}
