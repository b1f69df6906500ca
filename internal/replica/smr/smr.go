// Package smr implements state machine replication (paper Def. 1): n
// replicas hosting a deterministic state machine behind a leader-sequenced
// total order, with client-side response voting.
//
// This is the S0 system class: clients send each request to every replica;
// the replicas run an order protocol (here: the lowest-indexed live replica
// acts as sequencer and broadcasts the execution order); every correct
// replica executes the same requests in the same order and produces an
// identical signed response; the client accepts a response once f+1
// replicas agree on its body.
//
// The engine enforces the paper's central SMR precondition: the hosted
// service must be a deterministic state machine. New rejects services whose
// Deterministic method reports false (the check can be disabled to
// demonstrate, in tests and examples, how nondeterminism breaks voting).
//
// Read scalability comes from heartbeat-bounded read leases (Config.Leases):
// the leader grants itself — and, via its heartbeats, its followers —
// time-bounded leases, and a replica holding a valid lease answers a
// read-tagged request from local state without burning a sequence slot or an
// order broadcast. A lease is only valid while the holder has executed
// through the grant frontier the heartbeat carried, so a lagging or
// partitioned follower falls back to ordering the read — correctness never
// depends on timing, only availability of the local fast path does. The
// leader's self-lease is quorum-backed: followers acknowledge each granting
// heartbeat on the duplex peer link, and the leader serves lease reads only
// while a majority acked within the lease window, so a deposed or islanded
// leader's lease dies before a failover can elect a successor (leases expire
// within LeaseDuration ≤ HeartbeatTimeout, the failover silence). Lease
// reads return a single signed response rather than an f+1 vote — the
// documented trade: locality against the ordered path's voting protection.
//
// Transport, lifecycle and peer fan-out come from the shared node runtime
// in replica/core. On top of it the engine adds leader-driven catch-up: a
// replica that detects a sequence gap (it missed orders while crashed,
// partitioned, or rebuilt from scratch) asks the current leader for a
// snapshot and/or the missing log suffix, replays it, and only then rejoins
// the order protocol — so SMR nodes ride crash/restart fault schedules the
// way PB nodes do. The exchange runs over the full-duplex peer link: the
// request is staged on the leader's outbox connection, the leader answers
// on that same connection, and the requester's peer reader loop delivers
// the response — no separately dialed transfer connection.
package smr

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"fortress/internal/metrics"
	"fortress/internal/netsim"
	"fortress/internal/replica/core"
	"fortress/internal/replica/store"
	"fortress/internal/service"
	"fortress/internal/sig"
)

var (
	// ErrNotDeterministic is returned by New for non-DSM services.
	ErrNotDeterministic = errors.New("smr: service is not a deterministic state machine")
	// ErrNoQuorum is returned by Vote when no response body reaches f+1
	// matching copies.
	ErrNoQuorum = errors.New("smr: no f+1 matching responses")
)

// wire message types exchanged between replicas; client requests and
// responses are core.MsgRequest and core.MsgResponse.
const (
	msgForward     = "forward"      // follower → leader: please order this
	msgOrder       = "order"        // leader → all: execute at sequence
	msgHeartbeat   = "heartbeat"    // leader → followers (carries the executed frontier)
	msgLeaseAck    = "lease-ack"    // follower → leader: granting heartbeat acknowledged (duplex reply)
	msgCatchupReq  = "catchup-req"  // lagging replica → leader: transfer from Seq
	msgCatchupResp = "catchup-resp" // leader → replica: snapshot and/or log suffix
)

// wireLogEntry is one sequenced request in a catch-up transfer.
type wireLogEntry struct {
	Seq       uint64 `json:"seq"`
	RequestID string `json:"requestId"`
	Body      []byte `json:"body,omitempty"`
}

// wireMsg is the replica wire format: the shared request edge (type,
// request ID, body, read tag, signed response, leased marker) plus the
// order protocol. Orders and forwards carry the sequenced request's ID and
// body.
type wireMsg struct {
	core.Msg
	Seq  uint64 `json:"seq,omitempty"`
	From int    `json:"from,omitempty"`
	// Snapshot, Entries and Responses carry a catch-up transfer: Snapshot
	// (when present) positions the receiver at sequence Seq in one jump,
	// Entries is the ordered log suffix the receiver replays through its
	// service, and Responses is the sender's response cache — shipped with
	// a snapshot so the jumped-over requests stay deduplicated (a replay
	// rebuilds the cache itself; a jump cannot).
	Snapshot  []byte            `json:"snapshot,omitempty"`
	Entries   []wireLogEntry    `json:"entries,omitempty"`
	Responses map[string][]byte `json:"responses,omitempty"`
}

// decoder decodes every wireMsg the replica receives.
var decoder core.Decoder[wireMsg]

func encode(m wireMsg) []byte {
	b, err := json.Marshal(m)
	if err != nil {
		panic(fmt.Sprintf("smr: marshal wire message: %v", err))
	}
	return b
}

// defaultCatchupHistory is how many executed entries a replica retains for
// log-suffix catch-up when Config.CatchupHistory is zero.
const defaultCatchupHistory = 512

// defaultSnapshotEvery is the persisted-snapshot cadence when
// Config.SnapshotEvery is zero.
const defaultSnapshotEvery = 32

// storeSnapshot is the composite persisted in the store's snapshot slot: the
// service state at the covered frontier plus the response cache, so a
// recovered replica answers retries of jumped-over requests from cache
// instead of re-ordering them.
type storeSnapshot struct {
	Snapshot  []byte            `json:"snapshot"`
	Responses map[string][]byte `json:"responses,omitempty"`
}

// Config describes one SMR replica.
type Config struct {
	// Index is this replica's unique index.
	Index int
	// Addr is the netsim address the replica listens on.
	Addr string
	// Peers maps every replica index (including this one) to its address.
	Peers map[int]string
	// Service is the hosted deterministic state machine.
	Service service.Service
	// Keys signs responses.
	Keys *sig.KeyPair
	// Net is the simulated network.
	Net *netsim.Network
	// HeartbeatInterval is how often the leader pings followers.
	HeartbeatInterval time.Duration
	// HeartbeatTimeout is how long a follower waits before electing the
	// next leader.
	HeartbeatTimeout time.Duration
	// CatchupHistory bounds the executed-entry window retained for
	// log-suffix catch-up transfers: a lagging replica whose gap fits the
	// window gets the missing orders replayed; one that has fallen further
	// behind gets a state snapshot instead. Zero selects the default
	// (512); negative retains nothing, forcing every catch-up onto the
	// snapshot path.
	CatchupHistory int
	// InitialSnapshot, InitialExecuted and InitialResponses seed a replica
	// built to replace one that is gone for good, from a live peer's
	// StateTransfer: the service restores InitialSnapshot, the sequence
	// counters start just past InitialExecuted, and InitialResponses
	// primes the response cache — state and sequence stay in lockstep,
	// which restoring into the Service before New never could. A node
	// seeded this way rejoins mid-history instead of claiming the group
	// starts over at sequence one.
	InitialSnapshot  []byte
	InitialExecuted  uint64
	InitialResponses map[string][]byte
	// JoinExisting makes the replica start with an unknown leader and adopt
	// whoever heartbeats first, exactly as Restart does — the right posture
	// for a replacement joining a group that has failed over away from this
	// index: a lowest-index replacement that assumed it leads (the default)
	// would otherwise sequence concurrently with the live leader for a
	// window and fork the replica states. Leave it false when the group
	// still follows this index (or is collectively fresh), where assuming
	// leadership is both safe and vacuum-free.
	JoinExisting bool
	// AllowNondeterministic disables the DSM check; used only to
	// demonstrate why the check exists.
	AllowNondeterministic bool
	// Store persists the order log and executed frontier: every executed
	// entry is journaled and every SnapshotEvery-th execution rewrites the
	// snapshot slot with the (state, response cache) pair, so a replica
	// rebuilt over a non-empty store recovers from disk before leader-driven
	// catch-up fills any remaining gap. Nil selects the in-memory no-op
	// store (nothing durable — today's semantics).
	Store store.Store
	// SnapshotEvery is the persisted-snapshot cadence: the journal is
	// folded into the snapshot slot every k executions, bounding replay
	// length at recovery. Zero selects the default (32). Meaningless
	// without a durable Store.
	SnapshotEvery int
	// RespCacheLimit bounds the response cache to the most recent k
	// executed requests, evicted in insertion order. The cache is the
	// retry horizon: a request retried within the horizon is answered
	// from cache, one retried later re-enters the order protocol. The
	// bound also caps what catch-up transfers and persisted snapshots
	// ship — resync cost stops growing with total request history. Zero
	// selects the default (4096); negative retains everything.
	RespCacheLimit int
	// Leases enables heartbeat-bounded read leases: requests tagged as
	// reads (and classified read-only by the Service) are answered from
	// local state by any replica holding a valid lease, without entering
	// the order protocol. See the package comment for the safety
	// argument; leases are revoked on leader change and expire within
	// LeaseDuration when heartbeats stop.
	Leases bool
	// LeaseDuration bounds how long a granting heartbeat keeps a lease
	// valid. It must not exceed HeartbeatTimeout — a deposed leader's
	// lease has to die before followers can elect a successor. Zero
	// selects HeartbeatTimeout/2, which leaves half the failover silence
	// as safety margin against in-flight grant and ack delays.
	LeaseDuration time.Duration
	// Metrics, when non-nil, receives the replica's instruments (lease
	// reads vs ordered fallbacks, catch-up replay vs snapshot installs)
	// and its trace-event ring, labelled by Addr. Observational only — no
	// protocol decision reads them back.
	Metrics *metrics.Registry
}

func (c Config) validate() error {
	switch {
	case c.Service == nil:
		return errors.New("smr: config needs a Service")
	case c.Keys == nil:
		return errors.New("smr: config needs Keys")
	case c.Net == nil:
		return errors.New("smr: config needs Net")
	case c.Addr == "":
		return errors.New("smr: config needs Addr")
	case len(c.Peers) == 0:
		return errors.New("smr: config needs Peers")
	case c.HeartbeatInterval <= 0 || c.HeartbeatTimeout <= 0:
		return errors.New("smr: config needs positive heartbeat timings")
	case c.SnapshotEvery < 0:
		return errors.New("smr: config needs a non-negative SnapshotEvery")
	case c.LeaseDuration < 0:
		return errors.New("smr: config needs a non-negative LeaseDuration")
	case c.Leases && c.LeaseDuration > c.HeartbeatTimeout:
		return errors.New("smr: LeaseDuration must not exceed HeartbeatTimeout")
	}
	if _, ok := c.Peers[c.Index]; !ok {
		return fmt.Errorf("smr: Peers must contain own index %d", c.Index)
	}
	if !c.AllowNondeterministic && !c.Service.Deterministic() {
		return fmt.Errorf("%w: %s", ErrNotDeterministic, c.Service.Name())
	}
	return nil
}

// orderEntry is a sequenced request waiting for (or past) execution.
type orderEntry struct {
	requestID string
	body      []byte
}

// Replica is one SMR replica: the order-protocol handler mounted on a
// core.Node runtime.
type Replica struct {
	cfg    Config
	node   *core.Node
	signer core.Signer

	// store is the persistence layer; durable caches store.Durable() so the
	// zero-persistence configuration skips record encoding entirely.
	store     store.Store
	durable   bool
	snapEvery uint64

	// execMu serializes request execution and every reader that needs a
	// state view consistent with the executed frontier (catch-up transfer
	// construction and installation). Always acquired before mu.
	execMu sync.Mutex

	mu         sync.Mutex
	leaderIdx  int
	nextAssign uint64 // leader: next sequence number to hand out
	nextExec   uint64 // everyone: next sequence number to execute
	log        map[uint64]orderEntry
	ordered    map[string]bool // request IDs already sequenced (leader)
	// replies holds executed requests' response payloads (the retry
	// horizon) and the client connections parked on requests not yet
	// executed here. Its eviction also drops the evicted ID from ordered:
	// a request retried beyond the horizon re-enters the order protocol,
	// the same contract pb's bounded cache keeps. Only executed requests
	// reach the cache, so in-flight sequenced IDs are never evicted from
	// ordered.
	replies       core.ReplyTable
	suspected     map[int]bool
	lastHeartbeat time.Time
	// Read-lease state. A follower's lease is the last granting heartbeat:
	// grantor, the leader's executed frontier at grant time, and the grant
	// receipt instant. The leader's self-lease is quorum-backed instead:
	// leaseAcks records when each follower last acknowledged a granting
	// heartbeat on the duplex link.
	leaseFrom     int
	leaseFrontier uint64
	leaseAt       time.Time
	leaseAcks     map[int]time.Time
	// hist is the executed-entry window for log-suffix catch-up: the entry
	// at sequence s executed s-th, and the invariant hist.End() == nextExec
	// always holds.
	hist       core.Window[orderEntry]
	catchupFor uint64    // nextExec value a catch-up request is in flight for; 0 = none
	catchupAt  time.Time // when that request left, for timeout-driven retry
	// persistedSnap is the frontier the store's snapshot slot covers; the
	// journal is folded into it every snapEvery executions.
	persistedSnap uint64

	// Instruments (nil no-ops when Config.Metrics is unset). Observational
	// only: nothing below feeds back into a protocol decision.
	mLeaseReads    *metrics.Counter // reads served from a valid lease
	mOrderedReads  *metrics.Counter // read-tagged requests that fell back to ordering
	mLeaseGrants   *metrics.Counter // granting heartbeats accepted
	mLeaseExpiries *metrics.Counter // reads refused on a grant that timed out
	mCatchupStarts *metrics.Counter // catch-up exchanges initiated
	mCatchupReplay *metrics.Counter // transfers answered by log-suffix replay
	mCatchupSnap   *metrics.Counter // transfers answered by snapshot install
	gExecuted      *metrics.Gauge   // executed frontier
	trace          *metrics.TraceRing
}

// New starts a replica. The initial leader is the lowest peer index.
func New(cfg Config) (*Replica, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	histKeep := cfg.CatchupHistory
	switch {
	case histKeep == 0:
		histKeep = defaultCatchupHistory
	case histKeep < 0:
		histKeep = 0
	}
	if cfg.InitialSnapshot != nil {
		if err := cfg.Service.Restore(cfg.InitialSnapshot); err != nil {
			return nil, fmt.Errorf("smr: restore initial snapshot: %w", err)
		}
	}
	st := cfg.Store
	if st == nil {
		st = store.NewMem()
	}
	snapEvery := cfg.SnapshotEvery
	if snapEvery == 0 {
		snapEvery = defaultSnapshotEvery
	}
	next := cfg.InitialExecuted + 1
	r := &Replica{
		cfg:        cfg,
		signer:     core.Signer{Keys: cfg.Keys, Index: cfg.Index},
		store:      st,
		durable:    st.Durable(),
		snapEvery:  uint64(snapEvery),
		leaderIdx:  lowestIndex(cfg.Peers, nil),
		nextExec:   next,
		nextAssign: next,
		hist:       core.NewWindow[orderEntry](next, histKeep),
		log:        make(map[uint64]orderEntry),
		ordered:    make(map[string]bool, len(cfg.InitialResponses)),
		replies:    core.NewReplyTable(cfg.RespCacheLimit),
		suspected:  make(map[int]bool),
		leaseFrom:  leaderUnknown,
		leaseAcks:  make(map[int]time.Time),
	}
	if reg := cfg.Metrics; reg != nil {
		node := fmt.Sprintf("{node=%q}", cfg.Addr)
		r.mLeaseReads = reg.Counter("smr_lease_reads_total"+node, metrics.Timing)
		r.mOrderedReads = reg.Counter("smr_ordered_read_fallbacks_total"+node, metrics.Timing)
		r.mLeaseGrants = reg.Counter("smr_lease_grants_total"+node, metrics.Timing)
		r.mLeaseExpiries = reg.Counter("smr_lease_expiries_total"+node, metrics.Timing)
		r.mCatchupStarts = reg.Counter("smr_catchup_starts_total"+node, metrics.Timing)
		r.mCatchupReplay = reg.Counter("smr_catchup_replay_total"+node, metrics.Timing)
		r.mCatchupSnap = reg.Counter("smr_catchup_snapshot_total"+node, metrics.Timing)
		r.gExecuted = reg.Gauge("smr_executed_frontier" + node)
		r.trace = reg.Ring(cfg.Addr, 0)
	}
	r.seedRepliesLocked(cfg.InitialResponses)
	if cfg.JoinExisting && len(cfg.Peers) > 1 {
		r.leaderIdx = leaderUnknown
	}
	r.lastHeartbeat = time.Now()
	if err := r.RecoverFromStore(); err != nil {
		return nil, fmt.Errorf("smr: %w", err)
	}
	node, err := core.NewNode(core.Config{
		Index:        cfg.Index,
		Addr:         cfg.Addr,
		Peers:        cfg.Peers,
		Net:          cfg.Net,
		TickInterval: cfg.HeartbeatInterval,
		Metrics:      cfg.Metrics,
	}, r)
	if err != nil {
		return nil, fmt.Errorf("smr: %w", err)
	}
	r.node = node
	if err := node.Start(); err != nil {
		return nil, fmt.Errorf("smr: %w", err)
	}
	return r, nil
}

// seedRepliesLocked bulk-inserts transferred response payloads (a seed,
// a recovered snapshot, a catch-up transfer) and marks every ID in m as
// sequenced, so retries of requests this replica never ordered itself hit
// the cache instead of re-entering the order protocol. IDs the table
// evicted along the way leave ordered too. Caller holds r.mu.
func (r *Replica) seedRepliesLocked(m map[string][]byte) {
	for id := range m {
		r.ordered[id] = true
	}
	for _, id := range r.replies.Seed(m) {
		if _, ok := r.replies.Get(id); !ok {
			delete(r.ordered, id)
		}
	}
}

func lowestIndex(peers map[int]string, suspected map[int]bool) int {
	best := -1
	for i := range peers {
		if suspected[i] {
			continue
		}
		if best == -1 || i < best {
			best = i
		}
	}
	return best
}

// Index returns the replica's index.
func (r *Replica) Index() int { return r.cfg.Index }

// Addr returns the replica's address.
func (r *Replica) Addr() string { return r.cfg.Addr }

// PublicKey exposes the verification key.
func (r *Replica) PublicKey() []byte { return r.cfg.Keys.Public() }

// LeaderIndex returns who this replica currently follows.
func (r *Replica) LeaderIndex() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.leaderIdx
}

// IsLeader reports whether this replica is currently the sequencer.
func (r *Replica) IsLeader() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.leaderIdx == r.cfg.Index
}

// Executed returns how many requests this replica has executed.
func (r *Replica) Executed() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.nextExec - 1
}

// StateTransfer captures a consistent (snapshot, executed, responses)
// triple for seeding a replacement replica (Config.InitialSnapshot et al.):
// taking execMu first freezes the executed frontier, so the snapshot, the
// sequence count and the response cache all describe the same instant. Any
// replica can donate — a donor behind the leader just leaves the
// replacement a gap the ordinary catch-up transfer closes.
func (r *Replica) StateTransfer() (snapshot []byte, executed uint64, responses map[string][]byte, err error) {
	r.execMu.Lock()
	defer r.execMu.Unlock()
	r.mu.Lock()
	executed = r.nextExec - 1
	responses = r.replies.Copy()
	r.mu.Unlock()
	snapshot, err = r.cfg.Service.Snapshot()
	if err != nil {
		return nil, 0, nil, err
	}
	return snapshot, executed, responses, nil
}

// Stop shuts the replica down and waits for its goroutines to exit.
func (r *Replica) Stop() { r.node.Stop() }

// Crash simulates a node crash observable by all peers: the replica is made
// inert and its address torn down synchronously; goroutine shutdown
// completes in the background, so Crash may be called from within request
// handling.
func (r *Replica) Crash() { r.node.Crash() }

// leaderUnknown is the post-restart leader sentinel: larger than any real
// replica index, so the first heartbeat heard (From <= leaderIdx) is adopted
// whoever sends it, and the restarted node never believes it leads until the
// group is provably silent for a full failover timeout.
const leaderUnknown = 1 << 30

// Restart re-opens a stopped or crashed replica in place, mirroring
// pb.Replica.Restart: the listener re-registers at the same address, the
// serve loops come back, and the node rejoins with its executed log and
// response cache retained. A multi-replica node rejoins with an unknown
// leader and adopts whichever leader heartbeats first — a restarted
// lowest-index node must not reclaim the sequencer role with a stale
// sequence counter while a failed-over leader is live. The first heartbeat
// also carries the leader's executed frontier, so a rejoining replica that
// missed orders while down detects the gap immediately and catches up from
// the leader before serving. Restarting a running replica is an error.
func (r *Replica) Restart() error { return r.node.Restart() }

// Rejoin implements core.Handler: protocol-state reset on restart.
func (r *Replica) Rejoin() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.leaderIdx = leaderUnknown
	if len(r.cfg.Peers) == 1 {
		r.leaderIdx = r.cfg.Index
	}
	r.suspected = make(map[int]bool)
	// Parked clients were disconnected by the shutdown; they resubmit.
	r.replies.UnparkAll()
	r.catchupFor = 0
	r.lastHeartbeat = time.Now()
	// Any lease predates the outage: revoked until the next grant.
	r.leaseFrom = leaderUnknown
	r.leaseAcks = make(map[int]time.Time)
}

// RecoverFromStore implements core.StoreRecoverer: a virgin replica built
// over a non-empty store reloads its state from disk — restore the persisted
// snapshot, then replay the journaled order suffix through Apply (the DSM
// precondition makes the replay reproduce state and responses exactly) —
// before leader-driven catch-up closes whatever gap the disk does not
// cover. New calls it too, so a fortress-level rebuild over a surviving
// store recovers without a donor: that is what makes a whole-cluster
// blackout survivable.
//
// A replica that has executed or been seeded with anything already (an
// in-place restart, or a donor-seeded replacement) is left untouched. In a
// multi-replica group the recovered node comes back with an unknown leader,
// exactly as Restart does: the group may have failed over while it was
// down, and a recovered lowest-index node must not reclaim the sequencer
// role with a stale counter.
func (r *Replica) RecoverFromStore() error {
	if !r.durable {
		return nil
	}
	rec, err := r.store.Load()
	if err != nil || rec.Empty() {
		return err
	}
	r.execMu.Lock()
	defer r.execMu.Unlock()
	r.mu.Lock()
	// Seen, not Len: a long-lived node whose bounded cache happens to be
	// empty (or fully evicted) has still executed or been seeded — it must
	// not be mistaken for a fresh node and anchored on the disk snapshot
	// over its live protocol state.
	virgin := r.nextExec == 1 && r.nextAssign == 1 && r.replies.Seen() == 0
	r.mu.Unlock()
	if !virgin {
		return nil
	}
	var (
		executed uint64
		resps    = make(map[string][]byte)
		replayed []orderEntry
	)
	if rec.HasSnapshot {
		var comp storeSnapshot
		if err := json.Unmarshal(rec.Snapshot, &comp); err != nil {
			return fmt.Errorf("smr: recover snapshot: %w", err)
		}
		if err := r.cfg.Service.Restore(comp.Snapshot); err != nil {
			return fmt.Errorf("smr: recover restore: %w", err)
		}
		executed = rec.SnapshotSeq
		for id, body := range comp.Responses {
			resps[id] = body
		}
	}
	for i, raw := range rec.Records {
		seq := rec.LogStart + uint64(i)
		if seq <= executed {
			continue // covered by the snapshot
		}
		if seq != executed+1 {
			break // journal does not chain onto the snapshot: keep the prefix
		}
		var e wireLogEntry
		if json.Unmarshal(raw, &e) != nil {
			break
		}
		respBody, applyErr := r.cfg.Service.Apply(e.Body)
		if applyErr != nil {
			respBody = []byte("error: " + applyErr.Error())
		}
		resps[e.RequestID] = respBody
		replayed = append(replayed, orderEntry{requestID: e.RequestID, body: e.Body})
		executed = seq
	}
	if executed == 0 {
		return nil
	}
	r.mu.Lock()
	r.nextExec = executed + 1
	r.nextAssign = executed + 1
	// The catch-up window holds the replayed suffix, so this node can serve
	// log-suffix transfers to peers that recovered slightly behind it —
	// after a blackout everyone is close together, and the snapshot path
	// would be overkill.
	r.hist.Reset(executed + 1 - uint64(len(replayed)))
	for _, e := range replayed {
		r.hist.Append(e)
	}
	r.seedRepliesLocked(resps)
	if rec.HasSnapshot {
		r.persistedSnap = rec.SnapshotSeq
	}
	if len(r.cfg.Peers) > 1 {
		r.leaderIdx = leaderUnknown
	}
	r.lastHeartbeat = time.Now()
	r.mu.Unlock()
	return nil
}

// HandleMessage implements core.Handler: one decoded wire message.
func (r *Replica) HandleMessage(conn *netsim.Conn, raw []byte, replies [][]byte) [][]byte {
	m, err := decoder.Decode(raw)
	if err != nil {
		return replies
	}
	switch m.Type {
	case core.MsgRequest:
		r.handleRequest(conn, m)
	case msgForward:
		r.handleForward(m)
	case msgOrder:
		r.handleOrder(m)
	case msgHeartbeat:
		if ack := r.handleHeartbeat(m); ack != nil {
			// Lease acknowledgment rides back on the same connection the
			// granting heartbeat arrived on — the leader's duplex peer
			// link, whose reader loop delivers it to HandlePeerReply.
			replies = append(replies, ack)
		}
	case msgCatchupReq:
		if resp := r.buildCatchup(m.Seq); resp != nil {
			replies = append(replies, resp)
		}
	case msgCatchupResp:
		// Transfers normally come back over the duplex peer link
		// (HandlePeerReply); one arriving on a served connection is applied
		// all the same.
		r.applyCatchup(m)
		r.clearCatchup()
	}
	return replies
}

// HandlePeerReply implements core.Handler: one message read back off the
// cached peer connection to peer — the reply direction of the full-duplex
// link. For smr that is the leader answering a catch-up request staged on
// its outbox connection.
func (r *Replica) HandlePeerReply(peer int, raw []byte) {
	m, err := decoder.Decode(raw)
	if err != nil {
		return
	}
	switch m.Type {
	case msgCatchupResp:
		r.applyCatchup(m)
		r.clearCatchup()
	case msgOrder:
		r.handleOrder(m)
	case msgHeartbeat:
		// No reply path here; the lease ack (if one was due) is dropped
		// and the next regular heartbeat re-grants.
		r.handleHeartbeat(m)
	case msgLeaseAck:
		r.mu.Lock()
		if r.cfg.Leases && r.leaderIdx == r.cfg.Index {
			r.leaseAcks[peer] = time.Now()
		}
		r.mu.Unlock()
	}
}

// leaseDuration is the grant validity window: Config.LeaseDuration, or half
// the failover silence by default.
func (r *Replica) leaseDuration() time.Duration {
	if r.cfg.LeaseDuration > 0 {
		return r.cfg.LeaseDuration
	}
	return r.cfg.HeartbeatTimeout / 2
}

// leaseValidLocked reports whether this replica may serve a read locally at
// instant now. The leader's self-lease requires a majority of the group
// (itself included) to have acknowledged a granting heartbeat within the
// lease window — an islanded or deposed leader loses its followers' acks
// and the lease with them. A follower's lease requires an unexpired grant
// from the leader it still follows AND an executed frontier at or past the
// grant frontier; the frontier condition is logical, not timed, so a
// lagging follower is excluded no matter how fresh its grant is. Caller
// holds r.mu.
func (r *Replica) leaseValidLocked(now time.Time) bool {
	if !r.cfg.Leases {
		return false
	}
	d := r.leaseDuration()
	if r.leaderIdx == r.cfg.Index {
		acked := 1 // self
		for i, t := range r.leaseAcks {
			if i != r.cfg.Index && now.Sub(t) <= d {
				acked++
			}
		}
		return acked > len(r.cfg.Peers)/2
	}
	return r.leaseFrom == r.leaderIdx &&
		now.Sub(r.leaseAt) <= d &&
		r.nextExec >= r.leaseFrontier
}

// LeaseValid reports whether this replica currently holds a valid read
// lease (for tests and status surfaces).
func (r *Replica) LeaseValid() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.leaseValidLocked(time.Now())
}

// tryServeRead is the lease-read fast path: answer a read-tagged request
// from local state, outside the order protocol. It serves only when the
// hosted service classifies the body as a pure read AND this replica holds
// a valid lease; any other case returns false and the caller falls back to
// ordering the read. execMu serializes the read with execution, so the
// response reflects a state consistent with the frontier the lease check
// saw — a read never observes a half-applied write.
func (r *Replica) tryServeRead(conn *netsim.Conn, m wireMsg) bool {
	if !r.cfg.Leases || !service.IsReadOnly(r.cfg.Service, m.Body) {
		return false
	}
	r.execMu.Lock()
	r.mu.Lock()
	now := time.Now()
	ok := r.leaseValidLocked(now)
	if !ok && r.cfg.Leases && r.leaderIdx != r.cfg.Index &&
		r.leaseFrom == r.leaderIdx && now.Sub(r.leaseAt) > r.leaseDuration() {
		// A grant from the leader we still follow, dead only by the clock:
		// the lease expired under us (heartbeats stopped or slowed).
		r.mLeaseExpiries.Inc()
		r.trace.Record(metrics.KindLeaseExpiry, r.cfg.Addr, r.leaseFrom, r.leaseFrontier)
	}
	r.mu.Unlock()
	if !ok {
		r.execMu.Unlock()
		return false
	}
	body, err := r.cfg.Service.Apply(m.Body)
	r.execMu.Unlock()
	if err != nil {
		body = []byte("error: " + err.Error())
	}
	r.mLeaseReads.Inc()
	_ = conn.Send(r.signer.Reply(m.RequestID, body, true))
	return true
}

// handleRequest registers the client connection and routes the request into
// the order protocol — unless it is a lease-servable read, which is
// answered locally without a sequence slot.
func (r *Replica) handleRequest(conn *netsim.Conn, m wireMsg) {
	if m.Read {
		if r.tryServeRead(conn, m) {
			return
		}
		r.mOrderedReads.Inc()
	}
	r.mu.Lock()
	if body, ok := r.replies.Get(m.RequestID); ok {
		r.mu.Unlock()
		_ = conn.Send(r.signer.Reply(m.RequestID, body, false))
		return
	}
	r.replies.Park(m.RequestID, conn)
	isLeader := r.leaderIdx == r.cfg.Index
	leader := r.leaderIdx
	r.mu.Unlock()

	if isLeader {
		r.sequence(m.RequestID, m.Body)
		return
	}
	// Follower: forward to the leader for ordering. The client also sent
	// the request to the leader directly, so this is belt-and-braces that
	// makes progress even if the client reached only this replica.
	r.node.SendTo(leader, encode(wireMsg{
		Msg: core.Msg{Type: msgForward, RequestID: m.RequestID, Body: m.Body}, From: r.cfg.Index,
	}))
}

// handleForward is the leader receiving a follower's order request.
func (r *Replica) handleForward(m wireMsg) {
	r.mu.Lock()
	isLeader := r.leaderIdx == r.cfg.Index
	r.mu.Unlock()
	if isLeader {
		r.sequence(m.RequestID, m.Body)
	}
}

// sequence assigns the next sequence number to a request (once) and
// broadcasts the order. The broadcast is flushed to the peers before the
// leader executes locally: if executing the request crashes the leader (an
// exploit probe), the followers must still receive — and share — the order.
func (r *Replica) sequence(requestID string, body []byte) {
	r.mu.Lock()
	if r.ordered[requestID] {
		r.mu.Unlock()
		return
	}
	if _, executed := r.replies.Get(requestID); executed {
		// Already executed under a previous sequencer's number (this node
		// was a follower then, so its ordered map never saw it). A retry
		// forwarded by a lagging replica must not re-enter the order under
		// a fresh number — the forwarder's parked client is answered when
		// its own catch-up replays the original execution.
		r.mu.Unlock()
		return
	}
	r.ordered[requestID] = true
	seq := r.nextAssign
	r.nextAssign++
	r.mu.Unlock()

	order := wireMsg{Msg: core.Msg{Type: msgOrder, RequestID: requestID, Body: body}, Seq: seq, From: r.cfg.Index}
	r.node.Broadcast(encode(order))
	r.node.Flush()
	r.handleOrder(order) // execute locally
}

// handleOrder buffers the sequenced request, executes everything that is
// now contiguous, and triggers a catch-up transfer if a sequence gap
// remains.
func (r *Replica) handleOrder(m wireMsg) {
	r.mu.Lock()
	if m.Seq < r.nextExec {
		r.mu.Unlock()
		return // already executed
	}
	r.log[m.Seq] = orderEntry{requestID: m.RequestID, body: m.Body}
	// Track leader liveness through orders too.
	if m.From != r.cfg.Index {
		r.lastHeartbeat = time.Now()
	}
	r.mu.Unlock()

	r.executeReady()

	r.mu.Lock()
	_, gap := r.log[r.nextExec]
	gap = !gap && len(r.log) > 0
	r.mu.Unlock()
	if gap {
		// Orders are buffered beyond a hole: the replica missed earlier
		// orders (crash, partition, drop) and cannot execute past it on
		// its own — ask the leader for the missing prefix.
		r.maybeCatchup()
	}
}

// executeReady runs every contiguously buffered order through the service.
// execMu serializes execution: concurrent handleOrder calls (two clients
// sequenced in the same drain, or a catch-up replay racing live orders)
// never interleave their Applies, so the state machine sees the total order
// the sequencer assigned.
func (r *Replica) executeReady() {
	r.execMu.Lock()
	defer r.execMu.Unlock()

	type executed struct {
		requestID string
		respBody  []byte
		conns     []*netsim.Conn
	}
	var ready []executed
	for {
		r.mu.Lock()
		entry, ok := r.log[r.nextExec]
		if !ok {
			r.mu.Unlock()
			break
		}
		seq := r.nextExec
		delete(r.log, r.nextExec)
		r.nextExec++
		r.mu.Unlock()
		// Execute outside mu: Apply may be slow (execMu still held, so the
		// executed frontier stays consistent for catch-up readers).
		respBody, applyErr := r.cfg.Service.Apply(entry.body)
		if applyErr != nil {
			respBody = []byte("error: " + applyErr.Error())
		}
		if r.durable {
			// Journal the sequenced request (not the response): recovery
			// replays it through Apply, which the DSM precondition makes
			// reproduce the response exactly. Store errors are dropped:
			// durability degrades but the replica keeps serving.
			if b, err := json.Marshal(wireLogEntry{Seq: seq, RequestID: entry.requestID, Body: entry.body}); err == nil {
				_ = r.store.Append(seq, b)
			}
		}
		r.mu.Lock()
		if evicted, ok := r.replies.Put(entry.requestID, respBody); ok {
			delete(r.ordered, evicted)
		}
		r.recordHistLocked(entry)
		conns := r.replies.Unpark(entry.requestID)
		r.mu.Unlock()
		ready = append(ready, executed{entry.requestID, respBody, conns})
	}
	if len(ready) > 0 {
		r.mu.Lock()
		r.gExecuted.Set(int64(r.nextExec - 1))
		r.mu.Unlock()
	}
	if r.durable && len(ready) > 0 {
		r.persistSnapshotIfDue()
	}

	for _, e := range ready {
		r.signer.Answer(e.conns, e.requestID, e.respBody)
	}
}

// persistSnapshotIfDue folds the journal into the store's snapshot slot once
// the executed frontier has moved snapEvery past the covered one, bounding
// replay length at recovery. Caller holds execMu, so the snapshot is
// consistent with the frontier.
func (r *Replica) persistSnapshotIfDue() {
	r.mu.Lock()
	frontier := r.nextExec - 1
	if frontier < r.persistedSnap+r.snapEvery {
		r.mu.Unlock()
		return
	}
	responses := r.replies.Copy()
	r.persistedSnap = frontier
	r.mu.Unlock()
	snap, err := r.cfg.Service.Snapshot()
	if err != nil {
		return
	}
	b, err := json.Marshal(storeSnapshot{Snapshot: snap, Responses: responses})
	if err != nil {
		return
	}
	if r.store.WriteSnapshot(frontier, b) == nil {
		_ = r.store.TruncateTo(store.TruncateAll)
	}
}

// recordHistLocked appends an executed entry to the catch-up window (a
// core.Window, shared machinery with pb's delta retransmission window),
// which trims itself to the configured size. Caller holds r.mu.
func (r *Replica) recordHistLocked(entry orderEntry) {
	r.hist.Append(entry)
}

// handleHeartbeat adopts the sender as leader when eligible and, with
// leases enabled, treats the heartbeat as a lease grant: the Seq field is
// the leader's executed frontier, which doubles as the grant frontier the
// lease-validity check holds followers to. It returns the lease
// acknowledgment to send back (nil when none is due) — the leader's
// quorum-backed self-lease is built from these acks.
func (r *Replica) handleHeartbeat(m wireMsg) []byte {
	var ack []byte
	r.mu.Lock()
	adopted := false
	if m.From <= r.leaderIdx {
		r.leaderIdx = m.From
		r.lastHeartbeat = time.Now()
		adopted = true
		if r.cfg.Leases && m.From != r.cfg.Index {
			// A grant from a new leader implicitly revokes the old one:
			// leaseFrom tracks the grantor and the validity check pins it
			// to the leader currently followed.
			r.leaseFrom = m.From
			r.leaseFrontier = m.Seq
			r.leaseAt = r.lastHeartbeat
			r.mLeaseGrants.Inc()
			r.trace.Record(metrics.KindLeaseGrant, r.cfg.Addr, m.From, m.Seq)
			ack = encode(wireMsg{Msg: core.Msg{Type: msgLeaseAck}, From: r.cfg.Index})
		}
	}
	behind := adopted && m.From != r.cfg.Index && m.Seq > r.nextExec
	r.mu.Unlock()
	if behind {
		// The leader's executed frontier is ahead of ours and no order
		// traffic is going to close the gap (we may have missed it all
		// while down): catch up.
		r.maybeCatchup()
	}
	return ack
}

// Tick implements core.Handler: leader heartbeats (carrying the executed
// frontier, so lagging followers self-detect), follower failure detection,
// and expiry of a catch-up exchange whose response never came back (dead
// leader, dropped transfer) so the next gap signal can retry.
func (r *Replica) Tick() {
	r.mu.Lock()
	isLeader := r.leaderIdx == r.cfg.Index
	stale := time.Since(r.lastHeartbeat) > r.cfg.HeartbeatTimeout
	leader := r.leaderIdx
	next := r.nextExec
	if r.catchupFor != 0 && time.Since(r.catchupAt) > r.cfg.HeartbeatTimeout {
		r.catchupFor = 0
	}
	r.mu.Unlock()

	if isLeader {
		r.node.Broadcast(encode(wireMsg{Msg: core.Msg{Type: msgHeartbeat}, From: r.cfg.Index, Seq: next}))
		return
	}
	if stale {
		r.electNext(leader)
	}
}

// electNext marks the current leader dead and deterministically adopts the
// lowest surviving index as the new leader.
func (r *Replica) electNext(deadLeader int) {
	r.mu.Lock()
	r.suspected[deadLeader] = true
	next := lowestIndex(r.cfg.Peers, r.suspected)
	if next == -1 {
		r.mu.Unlock()
		return
	}
	r.leaderIdx = next
	r.lastHeartbeat = time.Now()
	// Leader change revokes any lease the dead leader granted; a fresh
	// leader starts with no follower acks, so its self-lease stays invalid
	// until a majority acknowledges its first heartbeats.
	r.leaseFrom = leaderUnknown
	r.leaseAcks = make(map[int]time.Time)
	becameLeader := next == r.cfg.Index
	if becameLeader && r.nextAssign < r.nextExec {
		// Fresh leader: continue sequencing after everything it executed.
		r.nextAssign = r.nextExec
	}
	seq := r.nextExec
	r.mu.Unlock()

	if becameLeader {
		r.node.Broadcast(encode(wireMsg{Msg: core.Msg{Type: msgHeartbeat}, From: r.cfg.Index, Seq: seq}))
	}
}

// --- Catch-up transfer --------------------------------------------------

// maybeCatchup starts one leader-driven catch-up exchange, unless one is
// already in flight, this replica leads, or no leader is known. The request
// rides the full-duplex peer link: staged on the leader's outbox connection
// and flushed immediately, with the leader's reply coming back on that same
// connection into HandlePeerReply — no dedicated transfer dial. A lost
// exchange (dead leader, dropped message) times out in Tick and the next
// gap signal retriggers it.
func (r *Replica) maybeCatchup() {
	r.mu.Lock()
	if r.catchupFor != 0 || r.leaderIdx == r.cfg.Index || r.leaderIdx == leaderUnknown {
		r.mu.Unlock()
		return
	}
	leader := r.leaderIdx
	if _, ok := r.cfg.Peers[leader]; !ok {
		r.mu.Unlock()
		return
	}
	from := r.nextExec
	r.catchupFor = from
	r.catchupAt = time.Now()
	r.mu.Unlock()
	r.mCatchupStarts.Inc()
	r.trace.Record(metrics.KindCatchupStart, r.cfg.Addr, leader, from)
	r.node.SendTo(leader, encode(wireMsg{Msg: core.Msg{Type: msgCatchupReq}, Seq: from, From: r.cfg.Index}))
	r.node.Flush()
}

func (r *Replica) clearCatchup() {
	r.mu.Lock()
	r.catchupFor = 0
	r.mu.Unlock()
}

// buildCatchup is the leader's side of a transfer: for a follower whose
// next needed sequence is from, return the missing suffix out of the
// retained window, or — when the gap has outrun the window — a state
// snapshot positioning the follower at the leader's executed frontier in
// one jump. A non-leader stays silent; the requester retries against
// whoever heartbeats next. Taking execMu first freezes the executed
// frontier, so the snapshot, the suffix and the reported sequence are
// mutually consistent.
func (r *Replica) buildCatchup(from uint64) []byte {
	r.execMu.Lock()
	defer r.execMu.Unlock()
	r.mu.Lock()
	if r.leaderIdx != r.cfg.Index {
		r.mu.Unlock()
		return nil
	}
	next := r.nextExec
	if from == 0 {
		from = 1
	}
	if from >= next {
		r.mu.Unlock()
		// Nothing to transfer: answer with the frontier so the requester
		// resolves its in-flight exchange promptly.
		return encode(wireMsg{Msg: core.Msg{Type: msgCatchupResp}, Seq: next, From: r.cfg.Index})
	}
	if from >= r.hist.Base() {
		entries := make([]wireLogEntry, 0, next-from)
		for s := from; s < next; s++ {
			e, _ := r.hist.Get(s) // hist.End() == nextExec: always present
			entries = append(entries, wireLogEntry{Seq: s, RequestID: e.requestID, Body: e.body})
		}
		r.mu.Unlock()
		return encode(wireMsg{Msg: core.Msg{Type: msgCatchupResp}, Seq: next, From: r.cfg.Index, Entries: entries})
	}
	// The gap predates the retained window: ship the whole state, plus the
	// response cache — the receiver jumps over those requests without
	// executing them, and must still answer their retries from cache
	// instead of re-running them under fresh sequence numbers. execMu is
	// held, so no Apply can slide anything past the frontier read above.
	responses := r.replies.Copy()
	r.mu.Unlock()
	snap, err := r.cfg.Service.Snapshot()
	if err != nil {
		return nil
	}
	return encode(wireMsg{Msg: core.Msg{Type: msgCatchupResp}, Seq: next, From: r.cfg.Index, Snapshot: snap, Responses: responses})
}

// applyCatchup installs a transfer: restore the snapshot (if any) to jump
// to the leader's frontier, then replay the log suffix through the normal
// order path — which also answers any requests parked behind the gap and
// drains whatever later orders were buffered while the transfer ran.
func (r *Replica) applyCatchup(m wireMsg) {
	if len(m.Snapshot) > 0 {
		var answered []core.Answerable
		r.execMu.Lock()
		r.mu.Lock()
		if m.Seq > r.nextExec {
			if err := r.cfg.Service.Restore(m.Snapshot); err == nil {
				r.mCatchupSnap.Inc()
				r.trace.Record(metrics.KindCatchupSnapshot, r.cfg.Addr, m.From, m.Seq)
				r.nextExec = m.Seq
				if r.nextAssign < r.nextExec {
					r.nextAssign = r.nextExec
				}
				for s := range r.log {
					if s < r.nextExec {
						delete(r.log, s)
					}
				}
				// The window restarts at the snapshot point.
				r.hist.Reset(m.Seq)
				// The jumped-over requests were never executed here; their
				// retries must hit the transferred cache, not re-enter the
				// order protocol under new sequence numbers — and anyone
				// already parked on one of them gets the cached answer now.
				// The transfer carries the donor's bounded cache (its retry
				// horizon).
				r.seedRepliesLocked(m.Responses)
				answered = r.replies.UnparkCached()
				if r.durable {
					// The jump invalidates the journaled prefix: persist the
					// transferred state as the new snapshot slot and drop the
					// records it supersedes.
					if b, err := json.Marshal(storeSnapshot{Snapshot: m.Snapshot, Responses: r.replies.Copy()}); err == nil {
						if r.store.WriteSnapshot(m.Seq-1, b) == nil {
							_ = r.store.TruncateTo(store.TruncateAll)
						}
						r.persistedSnap = m.Seq - 1
					}
				}
			}
		}
		r.mu.Unlock()
		r.execMu.Unlock()
		for _, a := range answered {
			r.signer.Answer(a.Conns, a.RequestID, a.Payload)
		}
	}
	if len(m.Entries) > 0 {
		r.mCatchupReplay.Inc()
		r.trace.Record(metrics.KindCatchupReplay, r.cfg.Addr, m.From, m.Seq)
	}
	for _, e := range m.Entries {
		r.handleOrder(wireMsg{Msg: core.Msg{Type: msgOrder, RequestID: e.RequestID, Body: e.Body}, Seq: e.Seq, From: m.From})
	}
	// A suffix that closed the gap may have made buffered live orders
	// contiguous too; handleOrder drained them. Flush anything the replay
	// staged (it stages nothing today, but keep the invariant: every
	// runtime entry point flushes on the way out).
	r.node.Flush()
}

// --- Client -----------------------------------------------------------

// Client submits requests to every replica and votes on the responses, as
// S0 clients do. InvokeRead adds the lease-read path: a tagged read sent to
// a single replica, rotated per call so a read-mostly workload spreads
// across the whole group instead of hammering every replica with every
// read.
type Client struct {
	net     *netsim.Network
	from    string
	addrs   map[int]string
	pubKeys map[int][]byte
	f       int
	timeout time.Duration

	mu      sync.Mutex
	sorted  []int // replica indices in order, for deterministic rotation
	nextIdx int
}

// NewClient builds a client. addrs and pubKeys map replica index to address
// and verification key; f is the fault tolerance degree: f+1 matching,
// correctly signed responses are required for acceptance.
func NewClient(net *netsim.Network, from string, addrs map[int]string, pubKeys map[int][]byte, f int, timeout time.Duration) (*Client, error) {
	if len(addrs) == 0 {
		return nil, errors.New("smr: client needs replica addresses")
	}
	if f < 0 || len(addrs) < f+1 {
		return nil, fmt.Errorf("smr: need at least f+1=%d replicas, have %d", f+1, len(addrs))
	}
	sorted := make([]int, 0, len(addrs))
	for idx := range addrs {
		sorted = append(sorted, idx)
	}
	sort.Ints(sorted)
	return &Client{net: net, from: from, addrs: addrs, pubKeys: pubKeys, f: f, timeout: timeout, sorted: sorted}, nil
}

// Invoke sends the request to all replicas and returns the body agreed on
// by at least f+1 of them, or ErrNoQuorum.
func (c *Client) Invoke(requestID string, body []byte) ([]byte, error) {
	type result struct {
		resp sig.ServerResponse
		err  error
	}
	results := make(chan result, len(c.addrs))
	var wg sync.WaitGroup
	for idx, addr := range c.addrs {
		wg.Add(1)
		go func(idx int, addr string) {
			defer wg.Done()
			resp, _, err := core.Request(c.net, fmt.Sprintf("%s-to-%d", c.from, idx), addr, requestID, body, false, c.timeout)
			if err == nil {
				if pk, ok := c.pubKeys[idx]; ok {
					if verr := sig.VerifyServerResponse(pk, resp); verr != nil {
						err = verr
					} else if resp.ServerIndex != idx {
						err = fmt.Errorf("smr: replica %d signed as %d", idx, resp.ServerIndex)
					}
				}
			}
			results <- result{resp, err}
		}(idx, addr)
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	var responses []sig.ServerResponse
	for res := range results {
		if res.err != nil {
			continue
		}
		responses = append(responses, res.resp)
		if body, err := Vote(responses, c.f); err == nil {
			return body, nil
		}
	}
	if body, err := Vote(responses, c.f); err == nil {
		return body, nil
	}
	return nil, fmt.Errorf("%w (got %d verified responses)", ErrNoQuorum, len(responses))
}

// InvokeRead submits a read-tagged request to one replica at a time,
// rotating through the group — the lease-read path, where read throughput
// scales with replica count because each read touches a single replica.
//
// A single signature is only accepted for a response marked as served
// under a valid lease: leased answers are backed by the lease machinery (a
// quorum-acked leader self-lease, or a follower grant pinned to the
// leader's executed frontier), which is what makes one replica's word
// acceptable. An authentic but unleased answer means the replica ordered
// the read instead — one replica's say-so about an ordered execution is
// exactly what the f+1 vote exists to check, so the client falls back to
// the full fan-out-and-vote Invoke (the ordered execution is already
// cached under the request ID, so the fallback dedupes rather than
// re-executes). Transport failures rotate to the next replica.
func (c *Client) InvokeRead(requestID string, body []byte) ([]byte, error) {
	c.mu.Lock()
	start := c.nextIdx
	c.nextIdx = (c.nextIdx + 1) % len(c.sorted)
	c.mu.Unlock()
	for n := 0; n < len(c.sorted); n++ {
		idx := c.sorted[(start+n)%len(c.sorted)]
		addr := c.addrs[idx]
		resp, leased, err := core.Request(c.net, fmt.Sprintf("%s-to-%d", c.from, idx), addr, requestID, body, true, c.timeout)
		if err != nil {
			continue
		}
		if pk, ok := c.pubKeys[idx]; ok {
			if sig.VerifyServerResponse(pk, resp) != nil || resp.ServerIndex != idx {
				continue
			}
		}
		if leased {
			return resp.Body, nil
		}
		// Ordered, not leased: stop probing — every further replica would
		// order it again too. Cross-check through the vote instead.
		break
	}
	return c.Invoke(requestID, body)
}

// Vote returns the response body shared by at least f+1 responses from
// distinct replicas, or ErrNoQuorum.
func Vote(responses []sig.ServerResponse, f int) ([]byte, error) {
	counts := make(map[string]map[int]bool)
	for _, r := range responses {
		key := string(r.Body)
		if counts[key] == nil {
			counts[key] = make(map[int]bool)
		}
		counts[key][r.ServerIndex] = true
	}
	// Deterministic iteration for reproducible error behaviour.
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if len(counts[k]) >= f+1 {
			return []byte(k), nil
		}
	}
	return nil, ErrNoQuorum
}
