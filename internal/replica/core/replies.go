package core

import (
	"sort"

	"fortress/internal/netsim"
)

// defaultReplyLimit bounds a reply table built with a zero limit.
const defaultReplyLimit = 4096

// ReplyTable is a replica's requester-facing bookkeeping: a bounded cache of
// the signable response payloads of executed requests, and the connections
// parked on requests not yet executed here.
//
// The cache is the retry horizon: a request retried while its payload is
// cached is answered from the cache; past the bound the oldest payloads are
// evicted in insertion order, and a retry of an evicted request is the
// backend's to handle. The bound also caps what checkpoints, catch-up
// transfers and persisted snapshots carry.
//
// ReplyTable is not synchronized; callers hold their own lock.
type ReplyTable struct {
	cache map[string][]byte
	order []string // cache keys, insertion order (eviction)
	limit int      // 0 = unbounded
	// seen counts every insertion ever, so an evicted-empty table is still
	// distinguishable from a virgin one.
	seen   uint64
	parked map[string][]*netsim.Conn
}

// NewReplyTable returns an empty table retaining at most limit payloads.
// Zero selects the default (4096); negative retains everything.
func NewReplyTable(limit int) ReplyTable {
	switch {
	case limit == 0:
		limit = defaultReplyLimit
	case limit < 0:
		limit = 0
	}
	return ReplyTable{
		cache:  make(map[string][]byte),
		limit:  limit,
		parked: make(map[string][]*netsim.Conn),
	}
}

// Get returns the cached payload for requestID.
func (t *ReplyTable) Get(requestID string) ([]byte, bool) {
	p, ok := t.cache[requestID]
	return p, ok
}

// Len returns the number of cached payloads.
func (t *ReplyTable) Len() int { return len(t.order) }

// Seen returns how many payloads were ever inserted, evicted ones included.
func (t *ReplyTable) Seen() uint64 { return t.seen }

// Put caches payload for requestID, evicting the oldest payload past the
// bound. Overwriting a cached ID keeps its eviction position. It returns
// the evicted ID, if any — at most one, since the table never exceeds its
// bound.
func (t *ReplyTable) Put(requestID string, payload []byte) (evicted string, ok bool) {
	if _, cached := t.cache[requestID]; !cached {
		t.order = append(t.order, requestID)
		t.seen++
	}
	t.cache[requestID] = payload
	if t.limit <= 0 || len(t.order) <= t.limit {
		return "", false
	}
	evicted = t.order[0]
	t.order = t.order[1:]
	delete(t.cache, evicted)
	return evicted, true
}

// Seed puts every entry of m the table does not already hold, in sorted ID
// order: with a bounded table insertion order decides eviction order, and
// map iteration order would make it nondeterministic. It returns the IDs
// evicted along the way, oldest first.
func (t *ReplyTable) Seed(m map[string][]byte) (evicted []string) {
	ids := make([]string, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		if _, cached := t.cache[id]; cached {
			continue
		}
		if ev, ok := t.Put(id, m[id]); ok {
			evicted = append(evicted, ev)
		}
	}
	return evicted
}

// Copy returns the cached payloads as a new map, for a checkpoint, catch-up
// transfer or persisted snapshot: later Puts do not change it.
func (t *ReplyTable) Copy() map[string][]byte {
	out := make(map[string][]byte, len(t.cache))
	for id, p := range t.cache {
		out[id] = p
	}
	return out
}

// Park holds conn until requestID's response is known here.
func (t *ReplyTable) Park(requestID string, conn *netsim.Conn) {
	t.parked[requestID] = append(t.parked[requestID], conn)
}

// Unpark removes and returns the connections parked on requestID.
func (t *ReplyTable) Unpark(requestID string) []*netsim.Conn {
	conns := t.parked[requestID]
	delete(t.parked, requestID)
	return conns
}

// Answerable is one parked request whose payload is now cached.
type Answerable struct {
	RequestID string
	Payload   []byte
	Conns     []*netsim.Conn
}

// UnparkCached removes and returns every parked request whose payload is
// cached.
func (t *ReplyTable) UnparkCached() []Answerable {
	var out []Answerable
	for id, conns := range t.parked {
		if p, ok := t.cache[id]; ok {
			delete(t.parked, id)
			out = append(out, Answerable{id, p, conns})
		}
	}
	return out
}

// UnparkAll removes and returns every parked connection.
func (t *ReplyTable) UnparkAll() []*netsim.Conn {
	var conns []*netsim.Conn
	for id, cs := range t.parked {
		conns = append(conns, cs...)
		delete(t.parked, id)
	}
	return conns
}
