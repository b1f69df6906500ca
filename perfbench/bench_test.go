package main

import (
	"math"
	"reflect"
	"testing"
	"time"
)

func TestScheduleIsPureFunctionOfSeed(t *testing.T) {
	a, err := schedule(7, 50, 10*time.Second, 1000, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := schedule(7, 50, 10*time.Second, 1000, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different arrival streams")
	}
	c, err := schedule(8, 50, 10*time.Second, 1000, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same arrival stream")
	}
	if n := len(a); n < 400 || n > 600 {
		t.Fatalf("%d arrivals in 10 s at 50/s", n)
	}
	reads := 0
	for i, x := range a {
		if x.at < 0 || x.at >= 10*time.Second || (i > 0 && x.at < a[i-1].at) {
			t.Fatalf("arrival %d at %v out of order or outside the window", i, x.at)
		}
		if x.key < 0 || x.key >= 1000 {
			t.Fatalf("arrival %d key %d outside the keyspace", i, x.key)
		}
		if x.read {
			reads++
		}
	}
	if frac := float64(reads) / float64(len(a)); math.Abs(frac-0.1) > 0.02 {
		t.Fatalf("read fraction %.3f, want 0.1", frac)
	}
}

func TestTailPercentileHasTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{1000, 99}, {2000, 99}, {999, 98}, {500, 98}, {100, 90}, {20, 50}, {11, 9}, {10, 0}, {0, 0},
	} {
		if got := tailPct(c.n); got != c.want {
			t.Errorf("tailPct(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	samples := make([]float64, 500)
	for i := range samples {
		samples[i] = float64(500 - i) // 1..500, shuffled order
	}
	med, high := summarize(samples)
	if med.Value != 250 || high.Pct != 98 || high.Value != 490 || high.N != 500 {
		t.Fatalf("summarize: median %+v tail %+v", med, high)
	}
	if beyond := 500 - 490; beyond < minBeyond {
		t.Fatalf("only %d samples beyond the tail", beyond)
	}
}

func TestRampStopsAtFirstBrokenRung(t *testing.T) {
	fine := tail{Pct: 99, Value: 20, N: 1000}
	cases := []struct {
		name  string
		rung  func(rate float64) rung
		calls int
		best  float64
	}{
		{"latency limit", func(rate float64) rung {
			if rate > 70 {
				return rung{rate: rate, tail: tail{Pct: 99, Value: 150, N: 1000}}
			}
			return rung{rate: rate, tail: fine}
		}, 4, 50 * 1.1 * 1.1 * 1.1},
		{"growing backlog", func(rate float64) rung {
			if rate > 65 {
				return rung{rate: rate, tail: fine, backlogEnd: int64(rate)}
			}
			return rung{rate: rate, tail: fine}
		}, 3, 50 * 1.1 * 1.1},
		{"later rungs passing again do not count", func(rate float64) rung {
			if rate > 54 && rate < 56 {
				return rung{rate: rate, tail: tail{Pct: 99, Value: 101, N: 1000}}
			}
			return rung{rate: rate, tail: fine}
		}, 1, 50},
	}
	for _, c := range cases {
		calls := 0
		best, rungs, err := ramp(50, true, func(k int, rate float64) (rung, error) {
			calls++
			return c.rung(rate), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if calls != c.calls || len(rungs) != c.calls || math.Abs(best-c.best) > 1e-9 {
			t.Errorf("%s: %d rungs, best %.3f; want %d rungs, best %.3f", c.name, calls, best, c.calls, c.best)
		}
	}
	if best, _, _ := ramp(50, false, nil); best != 0 {
		t.Errorf("a failing base rate gave max rate %v", best)
	}
}

func TestLostWriteChecker(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	preload := write{value: "p0", acked: true}
	a := write{value: "a", invoke: at(10), ret: at(20), acked: true}
	b := write{value: "b", invoke: at(30), ret: at(40), acked: true}
	// c overlaps d: either may be the last.
	c := write{value: "c", invoke: at(50), ret: at(70), acked: true}
	d := write{value: "d", invoke: at(60), ret: at(80), acked: true}
	lost := write{value: "x", invoke: at(90), ret: at(95), acked: false}

	if legalFinal([]write{preload, a, b}, "a") {
		t.Error("read of a after b was acknowledged passed: b is lost")
	}
	if legalFinal([]write{preload, a, b}, "p0") {
		t.Error("read of the preload value after acknowledged writes passed")
	}
	if !legalFinal([]write{preload, a, b}, "b") {
		t.Error("read of the last acknowledged write failed")
	}
	for _, v := range []string{"c", "d"} {
		if !legalFinal([]write{preload, a, b, c, d}, v) {
			t.Errorf("overlapping writes: final %s rejected", v)
		}
	}
	if legalFinal([]write{preload, a, b, c, d}, "b") {
		t.Error("read of b after c and d were acknowledged passed")
	}
	// An unacknowledged write may or may not have taken effect.
	for _, v := range []string{"d", "x"} {
		if !legalFinal([]write{preload, c, d, lost}, v) {
			t.Errorf("unacknowledged write: final %s rejected", v)
		}
	}
	if legalFinal([]write{preload, a}, "never-written") {
		t.Error("a value no write produced passed")
	}
	if !produced([]write{preload, a}, "a", at(15)) || produced([]write{preload, a}, "a", at(5)) {
		t.Error("produced must accept a value only once its write was invoked")
	}
}
