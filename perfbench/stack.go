package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"fortress/internal/fortress"
	"fortress/internal/keyspace"
	"fortress/internal/metrics"
	"fortress/internal/netsim"
	"fortress/internal/proxy"
	"fortress/internal/replica"
	"fortress/internal/replica/pb"
	"fortress/internal/replica/store"
	"fortress/internal/service"
)

const (
	servers     = 3
	proxies     = 3
	linkDelay   = time.Millisecond
	reqDeadline = time.Second
	retryPause  = 5 * time.Millisecond // between attempts of one request
	valueDigits = 10
)

// keyName is the KV key for key ID k.
func keyName(k int) string { return fmt.Sprintf("k%04d", k) }

// preloadValue is the value set-up stores under key ID k. It has the same
// length as every value a request writes, so state size never drifts.
func preloadValue(k int) string { return fmt.Sprintf("p%0*d", valueDigits, k) }

// writeValue is the value request number n writes: unique per request, so
// every value read back names the write that produced it.
func writeValue(n int) string { return fmt.Sprintf("r%0*d", valueDigits, n) }

// preloadSnapshot returns the snapshot of a KV holding every key ID below
// keys at its preload value.
func preloadSnapshot(keys int) ([]byte, error) {
	kv := service.NewKV()
	for k := 0; k < keys; k++ {
		req := fmt.Sprintf(`{"op":"put","key":%q,"value":%q}`, keyName(k), preloadValue(k))
		if _, err := kv.Apply([]byte(req)); err != nil {
			return nil, err
		}
	}
	snap, err := kv.Snapshot()
	return append([]byte(nil), snap...), err
}

// openLoopConfig is the deployment the open-loop workloads drive: every
// server's KV starts from the preload snapshot.
func openLoopConfig(def workloadDef, space *keyspace.Space, seed uint64, snap []byte, reg *metrics.Registry) fortress.Config {
	return fortress.Config{
		Servers: servers,
		Proxies: proxies,
		Groups:  def.groups,
		Backend: def.backend,
		Space:   space,
		Seed:    seed,
		ServiceFactory: func() service.Service {
			kv := service.NewKV()
			if err := kv.Restore(snap); err != nil {
				panic(fmt.Sprintf("perfbench: restore preload: %v", err))
			}
			return kv
		},
		HeartbeatInterval: 20 * time.Millisecond,
		HeartbeatTimeout:  400 * time.Millisecond,
		ServerTimeout:     reqDeadline,
		Leases:            def.leases,
		Net:               netsim.NewNetwork(netsim.WithMetrics(reg)),
		Metrics:           reg,
	}
}

// deployment is one running FORTRESS stack under test with the client
// identities that drive it.
type deployment struct {
	def     workloadDef
	sys     *fortress.System
	reg     *metrics.Registry
	clients []*proxy.Client
	newDur  time.Duration // fortress.New alone
	dir     string        // WAL directory, removed by stop
}

// deploy builds the workload's stack — the open-loop deployment with
// every server's KV preloaded, or the campaign cell's — then warms it up
// through the proxies until every group has answered. Links get their
// 1 ms delay only after warm-up.
func deploy(def workloadDef, seed uint64, nclients int, scratch string) (*deployment, error) {
	d := &deployment{def: def, reg: metrics.New()}
	var cfg fortress.Config
	if def.campaign {
		space, err := keyspace.NewSpace(campaignChi)
		if err != nil {
			return nil, err
		}
		cfg = campaignTemplate()
		cfg.Space, cfg.Seed, cfg.Net, cfg.Metrics = space, seed, netsim.NewNetwork(netsim.WithMetrics(d.reg)), d.reg
	} else {
		snap, err := preloadSnapshot(def.keys)
		if err != nil {
			return nil, err
		}
		space, err := keyspace.NewSpace(1 << 16)
		if err != nil {
			return nil, err
		}
		cfg = openLoopConfig(def, space, seed, snap, d.reg)
	}
	var err error
	if def.wal {
		d.dir, err = os.MkdirTemp(scratch, "wal-")
		if err != nil {
			return nil, err
		}
		cfg.StoreFactory = func(i int) (store.Store, error) {
			return store.Open(store.WALConfig{
				Dir:     filepath.Join(d.dir, fmt.Sprintf("server-%d", i)),
				Metrics: d.reg,
				Node:    fortress.ServerAddr(i),
			})
		}
	}
	t0 := time.Now()
	d.sys, err = fortress.New(cfg)
	d.newDur = time.Since(t0)
	if err != nil {
		d.stop()
		return nil, fmt.Errorf("fortress.New: %w", err)
	}
	for i := 0; i < nclients; i++ {
		c, err := d.sys.Client(fmt.Sprintf("bench-client-%d", i), reqDeadline)
		if err != nil {
			d.stop()
			return nil, err
		}
		d.clients = append(d.clients, c)
	}
	if err := d.warm(); err != nil {
		d.stop()
		return nil, err
	}
	d.sys.Net().SetLinkDelay(linkDelay)
	return d, nil
}

// warm issues reads through the proxies until every group has answered
// one.
func (d *deployment) warm() error {
	for g := 0; g < d.sys.Groups(); g++ {
		key := d.keyInGroup(g)
		ok := false
		for try := 0; try < 50 && !ok; try++ {
			_, err := d.clients[0].InvokeRead(fmt.Sprintf("warm-g%d-%d", g, try), getBody(key))
			ok = err == nil
		}
		if !ok {
			return fmt.Errorf("group %d never answered during warm-up", g)
		}
	}
	return nil
}

// keyInGroup returns the first preloaded key the shard ring assigns to g.
func (d *deployment) keyInGroup(g int) string {
	for k := 0; k < d.def.keys; k++ {
		if d.sys.Groups() == 1 || d.sys.Ring().Owner(keyName(k)) == g {
			return keyName(k)
		}
	}
	return keyName(0)
}

// groupServers returns the global indices of group g's servers.
func (d *deployment) groupServers(g int) []int {
	n := d.sys.ServersPerGroup()
	out := make([]int, n)
	for i := range out {
		out[i] = g*n + i
	}
	return out
}

// primary returns the index of group 0's PB primary.
func (d *deployment) primary() (int, error) {
	for i, s := range d.sys.Servers() {
		if r, ok := s.(*pb.Replica); ok && d.sys.GroupOf(i) == 0 && r.Role() == pb.RolePrimary {
			return i, nil
		}
	}
	return 0, errors.New("no PB primary in group 0")
}

// frontier is the highest Executed() among the live servers of i's group
// other than i.
func (d *deployment) frontier(i int) uint64 {
	var f uint64
	all := d.sys.Servers()
	for _, j := range d.groupServers(d.sys.GroupOf(i)) {
		if j != i {
			f = max(f, all[j].Executed())
		}
	}
	return f
}

func (d *deployment) server(i int) replica.Server { return d.sys.Servers()[i] }

func (d *deployment) stop() {
	if d.sys != nil {
		d.sys.Stop()
	}
	if d.dir != "" {
		_ = os.RemoveAll(d.dir) // scratch data only
	}
}

func getBody(key string) []byte {
	return []byte(`{"op":"get","key":"` + key + `"}`)
}

func putBody(key, value string) []byte {
	return []byte(`{"op":"put","key":"` + key + `","value":"` + value + `"}`)
}
