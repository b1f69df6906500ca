package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"syscall"
	"time"

	fmetrics "fortress/internal/metrics"
	"fortress/internal/netsim"
	"fortress/internal/replica/pb"
	"fortress/internal/service"
	"fortress/internal/sig"
)

// fanout calls pb.RequestTagged on every server of key's group in parallel,
// as a proxy does, under one "pb.fanout" span with a "pb.request" child per
// server, then times each signature operation on the first response it
// captured. A fan-out no server answered, as while a PB primary is down,
// captures nothing to time and is not an error; a captured response whose
// signature does not verify is.
func (d *deployment) fanout(id, key string, tr *tracer, keys *sig.KeyPair) error {
	group := 0
	if d.sys.Groups() > 1 {
		group = d.sys.Ring().Owner(key)
	}
	idx := d.groupServers(group)
	all := d.sys.Servers()
	root := tr.begin("pb.fanout", id, 0)
	resps := make([]sig.ServerResponse, len(idx))
	errs := make([]error, len(idx))
	var wg sync.WaitGroup
	for i, s := range idx {
		addr := all[s].Addr()
		wg.Add(1)
		go func() {
			defer wg.Done()
			sp := tr.begin("pb.request", id, root.id)
			resps[i], errs[i] = pb.RequestTagged(d.sys.Net(), "bench-fanout", addr, id, getBody(key), true, reqDeadline)
			tr.end(sp)
		}()
	}
	wg.Wait()
	tr.end(root)
	for i, s := range idx {
		if errs[i] != nil {
			continue
		}
		return timeSig(tr, id, resps[i], all[s].PublicKey(), keys)
	}
	return nil
}

// timeSig times each signature operation of the doubly-signed path on a
// captured server response: the server's sign, the proxy's verify and
// over-sign, and the client's double verify.
func timeSig(tr *tracer, id string, resp sig.ServerResponse, serverPub []byte, keys *sig.KeyPair) error {
	sp := tr.begin("sig.verify", id, 0)
	err := sig.VerifyServerResponse(serverPub, resp)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("captured response %s: %w", id, err)
	}
	sp = tr.begin("sig.sign", id, 0)
	_ = sig.SignServerResponse(keys, resp.RequestID, resp.Body, resp.ServerIndex)
	tr.end(sp)
	sp = tr.begin("sig.oversign", id, 0)
	ds, err := sig.OverSign(keys, "bench-proxy", resp)
	tr.end(sp)
	if err != nil {
		return err
	}
	vs := sig.NewVerifierSet()
	vs.Proxies["bench-proxy"] = keys.Public()
	vs.Servers[resp.ServerIndex] = serverPub
	sp = tr.begin("sig.verify_doubly", id, 0)
	err = vs.VerifyDoublySigned(ds)
	tr.end(sp)
	return err
}

// probeNetsim times dials and round trips of a zero-delay echo on a
// private network.
func probeNetsim(tr *tracer, n int) error {
	net := netsim.NewNetwork()
	l, err := net.Listen("echo")
	if err != nil {
		return err
	}
	defer l.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			for {
				m, err := c.Recv()
				if err != nil {
					break
				}
				_ = c.Send(m)
				netsim.Release(m)
			}
			c.Close()
		}
	}()
	msg := []byte(`{"op":"get","key":"k0000"}`)
	for i := 0; i < n; i++ {
		sp := tr.begin("netsim.dial", "", 0)
		c, err := net.Dial("echo-client", "echo")
		tr.end(sp)
		if err != nil {
			return err
		}
		sp = tr.begin("netsim.rtt", "", 0)
		err = c.Send(msg)
		if err == nil {
			var m []byte
			m, err = c.RecvTimeout(time.Second)
			netsim.Release(m)
		}
		tr.end(sp)
		c.Close()
		if err != nil {
			return err
		}
	}
	l.Close()
	wg.Wait()
	return nil
}

// probeService times KV.Apply and KV.Restore on a KV at the workload's
// preloaded size and returns that KV's snapshot size in bytes.
func probeService(tr *tracer, keys, n int) (int, error) {
	snap, err := preloadSnapshot(keys)
	if err != nil {
		return 0, err
	}
	kv := service.NewKV()
	if err := kv.Restore(snap); err != nil {
		return 0, err
	}
	for i := 0; i < n; i++ {
		body := putBody(keyName(i%keys), writeValue(i))
		sp := tr.begin("service.apply", "", 0)
		_, err := kv.Apply(body)
		tr.end(sp)
		if err != nil {
			return 0, err
		}
		cur, _ := kv.Snapshot()
		sp = tr.begin("service.restore", "", 0)
		err = service.NewKV().Restore(cur)
		tr.end(sp)
		if err != nil {
			return 0, err
		}
	}
	return len(snap), nil
}

// counts is the delta of a registry's counters and histograms over the
// measured window, summed across nodes by base name (labels dropped).
type counts struct {
	counters map[string]uint64
	hists    map[string]fmetrics.HistogramSnapshot
}

func base(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// diff returns after − before. Stable and Timing counters are both read:
// most per-layer counters are Timing class (their totals depend on
// scheduling), so they are reported as measured, not as exact counts.
func diff(before, after fmetrics.Snapshot) counts {
	c := counts{counters: map[string]uint64{}, hists: map[string]fmetrics.HistogramSnapshot{}}
	for _, m := range []struct{ b, a map[string]uint64 }{{before.Counters, after.Counters}, {before.Timing, after.Timing}} {
		for name, v := range m.a {
			c.counters[base(name)] += v - m.b[name]
		}
	}
	for name, h := range after.Histograms {
		prev := before.Histograms[name]
		cur := c.hists[base(name)]
		if cur.Counts == nil {
			cur = fmetrics.HistogramSnapshot{Bounds: h.Bounds, Counts: make([]uint64, len(h.Counts))}
		}
		if len(cur.Counts) != len(h.Counts) {
			continue
		}
		for i := range h.Counts {
			var p uint64
			if i < len(prev.Counts) {
				p = prev.Counts[i]
			}
			cur.Counts[i] += h.Counts[i] - p
		}
		cur.Count += h.Count - prev.Count
		cur.Sum += h.Sum - prev.Sum
		c.hists[base(name)] = cur
	}
	return c
}

// quantileMS estimates quantile q of a nanosecond histogram in ms,
// interpolating linearly inside the bucket; the registry's buckets are a
// decade wide, so this is a coarse figure. Zero when the histogram is empty.
func (c counts) quantileMS(name string, q float64) float64 {
	h, ok := c.hists[name]
	if !ok || h.Count == 0 {
		return 0
	}
	target := q * float64(h.Count)
	var cum float64
	lo := 0.0
	for i, n := range h.Counts {
		hi := lo
		if i < len(h.Bounds) {
			hi = float64(h.Bounds[i])
		}
		if n > 0 && cum+float64(n) >= target {
			frac := (target - cum) / float64(n)
			return (lo + frac*(hi-lo)) / 1e6
		}
		cum += float64(n)
		lo = hi
	}
	return lo / 1e6
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// procStats is the process's resource use at one instant.
type procStats struct {
	cpu        time.Duration // user + system
	totalAlloc uint64
	gcCPU      float64 // seconds
	allCPU     float64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/gc/heap/allocs:bytes"},
}

func readProc() procStats {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := make([]metrics.Sample, len(runtimeSamples))
	copy(s, runtimeSamples)
	metrics.Read(s)
	return procStats{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		gcCPU:      s[0].Value.Float64(),
		allCPU:     s[1].Value.Float64(),
		totalAlloc: s[2].Value.Uint64(),
	}
}

// heapSampler reads the live heap — the bytes the most recent garbage
// collection found reachable — every few milliseconds until stopped. Live
// heap, not allocated heap: the latter also counts garbage awaiting
// collection, which varies with GC timing rather than with what the
// program holds.
type heapSampler struct {
	stop chan struct{}
	done chan []float64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan []float64, 1)}
	go func() {
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		var samples []float64
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			samples = append(samples, float64(s[0].Value.Uint64())/(1<<20))
			select {
			case <-h.stop:
				h.done <- samples
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns its samples, in MiB.
func (h *heapSampler) finish() []float64 {
	close(h.stop)
	return <-h.done
}

// hostFacts are the properties of the host the numbers depend on.
func hostFacts() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d go=%s", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
}
