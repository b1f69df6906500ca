// Failover: crash the primary of the PB server tier mid-workload and watch
// a backup take over with the service state intact — the classical
// crash-tolerance that FORTRESS builds on (and that the fortification does
// not disturb).
package main

import (
	"fmt"
	"log"
	"time"

	"fortress/internal/netsim"
	"fortress/internal/replica/core"
	"fortress/internal/replica/pb"
	"fortress/internal/service"
	"fortress/internal/sig"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	net := netsim.NewNetwork()
	peers := map[int]string{0: "server-0", 1: "server-1", 2: "server-2"}

	var replicas []*pb.Replica
	for i := 0; i < 3; i++ {
		keys, err := sig.NewKeyPair()
		if err != nil {
			return err
		}
		r, err := pb.New(pb.Config{
			Index:             i,
			Addr:              peers[i],
			Peers:             peers,
			InitialPrimary:    0,
			Service:           service.NewBank(),
			Keys:              keys,
			Net:               net,
			HeartbeatInterval: 10 * time.Millisecond,
			HeartbeatTimeout:  80 * time.Millisecond,
		})
		if err != nil {
			return err
		}
		replicas = append(replicas, r)
	}
	defer func() {
		for _, r := range replicas {
			r.Stop()
		}
	}()
	fmt.Println("3-replica primary-backup bank: replica 0 is primary")

	// Build up state through the primary.
	requests := []string{
		`{"op":"open","from":"alice"}`,
		`{"op":"open","from":"bob"}`,
		`{"op":"deposit","from":"alice","amount":100}`,
		`{"op":"transfer","from":"alice","to":"bob","amount":40}`,
	}
	for i, body := range requests {
		resp, _, err := core.Request(net, "client", "server-0", fmt.Sprintf("r%d", i), []byte(body), false, 2*time.Second)
		if err != nil {
			return err
		}
		fmt.Printf("  %-55s -> %s\n", body, resp.Body)
	}

	fmt.Println("crashing the primary...")
	replicas[0].Crash()

	// Wait for failover: replica 1 promotes deterministically.
	deadline := time.Now().Add(5 * time.Second)
	for replicas[1].Role() != pb.RolePrimary {
		if time.Now().After(deadline) {
			return fmt.Errorf("failover never completed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	fmt.Println("replica 1 promoted to primary")

	// The new primary serves with the replicated state.
	resp, _, err := core.Request(net, "client", "server-1", "post-failover",
		[]byte(`{"op":"balance","from":"bob"}`), false, 2*time.Second)
	if err != nil {
		return err
	}
	fmt.Printf("  bob's balance after failover: %s (want 40 — state survived)\n", resp.Body)
	return nil
}
