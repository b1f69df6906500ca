package smr

import (
	"fmt"
	"testing"

	"fortress/internal/netsim"
	"fortress/internal/replica/core"
	"fortress/internal/replica/store"
	"fortress/internal/service"
	"fortress/internal/sig"
)

// respCacheState snapshots a replica's response-cache bookkeeping.
func respCacheState(r *Replica) (cached, order int, ids map[string]bool, orderedIDs map[string]bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	payloads := r.replies.Copy()
	ids = make(map[string]bool, len(payloads))
	for id := range payloads {
		ids[id] = true
	}
	orderedIDs = make(map[string]bool, len(r.ordered))
	for id := range r.ordered {
		orderedIDs[id] = true
	}
	return len(payloads), r.replies.Len(), ids, orderedIDs
}

// TestRespCacheBounded: with RespCacheLimit set, every replica retains only
// the newest responses — the retry horizon — and prunes the leader's
// sequenced-ID dedup set in lockstep, so the two structures never disagree
// about which retries are absorbable.
func TestRespCacheBounded(t *testing.T) {
	const limit = 4
	_, reps, client := leaseCluster(t, 4,
		func(int) service.Service { return service.NewCounter() },
		func(c *Config) { c.RespCacheLimit = limit })
	for i := 0; i < 10; i++ {
		if _, err := client.Invoke(fmt.Sprintf("r%d", i), []byte("inc")); err != nil {
			t.Fatal(err)
		}
	}
	waitExecuted(t, reps, 10)
	for _, r := range reps {
		cached, order, ids, orderedIDs := respCacheState(r)
		if cached > limit || order > limit {
			t.Fatalf("replica %d cache grew past the horizon: %d cached, %d in order", r.Index(), cached, order)
		}
		// The newest requests are retained; evicted IDs are gone from the
		// dedup set too.
		for i := 10 - limit; i < 10; i++ {
			if !ids[fmt.Sprintf("r%d", i)] {
				t.Fatalf("replica %d evicted r%d, inside the horizon", r.Index(), i)
			}
		}
		for i := 0; i < 10-limit; i++ {
			id := fmt.Sprintf("r%d", i)
			if ids[id] {
				t.Fatalf("replica %d retained r%d past the horizon", r.Index(), i)
			}
			if orderedIDs[id] {
				t.Fatalf("replica %d kept evicted r%d in the ordered set", r.Index(), i)
			}
		}
	}
}

// TestRespCacheRetryHorizon pins the retry contract of the bound: a retry
// inside the horizon is answered from cache without re-execution, one past
// it re-enters the order protocol as a fresh request.
func TestRespCacheRetryHorizon(t *testing.T) {
	_, reps, client := leaseCluster(t, 4,
		func(int) service.Service { return service.NewCounter() },
		func(c *Config) { c.RespCacheLimit = 4 })
	for i := 0; i < 6; i++ {
		if _, err := client.Invoke(fmt.Sprintf("r%d", i), []byte("inc")); err != nil {
			t.Fatal(err)
		}
	}
	waitExecuted(t, reps, 6)

	// r5 is within the 4-entry horizon: cached, not re-executed.
	body, err := client.Invoke("r5", []byte("inc"))
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != "6" {
		t.Fatalf("within-horizon retry = %q, want the cached 6", body)
	}
	waitExecuted(t, reps, 6)

	// r0 was evicted: the retry is indistinguishable from a new request and
	// executes again — the cost the horizon trades for bounded memory.
	body, err = client.Invoke("r0", []byte("inc"))
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != "7" {
		t.Fatalf("past-horizon retry = %q, want a fresh 7", body)
	}
}

// TestCatchupSnapshotShipsBoundedCache: a snapshot catch-up transfers the
// donor's response cache, which the bound keeps at the retry horizon — the
// restarted replica converges without inheriting an unbounded cache.
func TestCatchupSnapshotShipsBoundedCache(t *testing.T) {
	const limit = 3
	_, reps, client := leaseCluster(t, 3,
		func(int) service.Service { return service.NewCounter() },
		func(c *Config) {
			c.RespCacheLimit = limit
			c.CatchupHistory = -1 // retain no log: force the snapshot path
		})
	invokeN(t, client, 0, 4)
	waitFor(t, func() bool { return reps[2].Executed() == 4 })
	reps[2].Crash()
	invokeN(t, client, 4, 4)
	waitFor(t, func() bool { return reps[0].Executed() == 8 })
	if err := reps[2].Restart(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return reps[2].Executed() == 8 })
	cached, order, _, _ := respCacheState(reps[2])
	if cached > limit || order > limit {
		t.Fatalf("catch-up shipped past the horizon: %d cached, %d in order, limit %d", cached, order, limit)
	}
}

// singleReplica builds a one-replica group over the given store.
func singleReplica(t *testing.T, net *netsim.Network, st store.Store, customize func(c *Config)) *Replica {
	t.Helper()
	keys, err := sig.NewKeyPair()
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Index: 0, Addr: "solo", Peers: map[int]string{0: "solo"},
		Service: service.NewCounter(), Keys: keys, Net: net,
		HeartbeatInterval: hbInterval, HeartbeatTimeout: hbTimeout,
		Store: st,
	}
	if customize != nil {
		customize(&cfg)
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestSeededReplicaNotMistakenForVirgin pins the virgin-detection fix for
// the bounded cache era: RecoverFromStore must gate on Seen (insertions
// ever), not on the cache's current size — a replica seeded with initial
// responses has protocol state even if eviction later empties its cache,
// and must not be re-anchored on a disk snapshot over that state.
func TestSeededReplicaNotMistakenForVirgin(t *testing.T) {
	dir := t.TempDir()
	open := func() store.Store {
		st, err := store.Open(store.WALConfig{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	// First life: execute a few requests so the WAL holds real state.
	net := netsim.NewNetwork()
	r1 := singleReplica(t, net, open(), nil)
	for i := 0; i < 3; i++ {
		if _, _, err := core.Request(net, "c", r1.Addr(), fmt.Sprintf("w%d", i), []byte("inc"), false, reqTimeout); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return r1.Executed() == 3 })
	r1.Stop()

	// A donor-seeded replacement over the same store: it carries initial
	// responses (Seen() > 0), so disk recovery must leave it untouched
	// even though its executed counter still reads zero.
	r2 := singleReplica(t, netsim.NewNetwork(), open(), func(c *Config) {
		c.Addr, c.Peers = "solo2", map[int]string{0: "solo2"}
		c.RespCacheLimit = 1
		c.InitialResponses = map[string][]byte{"seed-a": []byte("1"), "seed-b": []byte("2")}
	})
	if got := r2.Executed(); got != 0 {
		t.Fatalf("seeded replica recovered from store anyway: executed = %d, want 0", got)
	}
	r2.mu.Lock()
	seen, cached := r2.replies.Seen(), r2.replies.Len()
	r2.mu.Unlock()
	if seen != 2 || cached != 1 {
		t.Fatalf("seed accounting: Seen() = %d (want 2), cached = %d (want 1)", seen, cached)
	}
	r2.Stop()

	// A genuinely virgin rebuild recovers the three executed requests.
	r3 := singleReplica(t, netsim.NewNetwork(), open(), func(c *Config) {
		c.Addr, c.Peers = "solo3", map[int]string{0: "solo3"}
	})
	defer r3.Stop()
	if got := r3.Executed(); got != 3 {
		t.Fatalf("virgin rebuild executed = %d, want the recovered 3", got)
	}
}
