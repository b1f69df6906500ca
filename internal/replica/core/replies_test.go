package core

import (
	"fmt"
	"testing"

	"fortress/internal/netsim"
)

func cachedIDs(t *ReplyTable, ids ...string) (held []string) {
	for _, id := range ids {
		if _, ok := t.Get(id); ok {
			held = append(held, id)
		}
	}
	return held
}

// TestReplyTableEvictsOldestFirst: at the bound each new ID evicts the
// oldest one, and Put reports which.
func TestReplyTableEvictsOldestFirst(t *testing.T) {
	tab := NewReplyTable(3)
	for i := 0; i < 3; i++ {
		if ev, ok := tab.Put(fmt.Sprintf("r%d", i), []byte{byte(i)}); ok {
			t.Fatalf("Put r%d under the bound evicted %q", i, ev)
		}
	}
	// Overwriting a held ID neither grows the table nor moves its position.
	if ev, ok := tab.Put("r0", []byte("again")); ok {
		t.Fatalf("overwrite evicted %q", ev)
	}
	for i := 3; i < 5; i++ {
		ev, ok := tab.Put(fmt.Sprintf("r%d", i), nil)
		if want := fmt.Sprintf("r%d", i-3); !ok || ev != want {
			t.Fatalf("Put r%d evicted (%q, %v), want %q", i, ev, ok, want)
		}
	}
	if got := cachedIDs(&tab, "r0", "r1", "r2", "r3", "r4"); fmt.Sprint(got) != "[r2 r3 r4]" {
		t.Fatalf("held %v, want [r2 r3 r4]", got)
	}
	if tab.Len() != 3 || len(tab.Copy()) != 3 {
		t.Fatalf("Len %d, Copy %d; want 3", tab.Len(), len(tab.Copy()))
	}
}

// TestReplyTableLimits: a zero limit means the default 4096, a negative one
// means unbounded.
func TestReplyTableLimits(t *testing.T) {
	def := NewReplyTable(0)
	for i := 0; i < 4096; i++ {
		if ev, ok := def.Put(fmt.Sprint(i), nil); ok {
			t.Fatalf("default table evicted %q at %d entries", ev, i)
		}
	}
	if ev, ok := def.Put("4096", nil); !ok || ev != "0" {
		t.Fatalf("entry 4097 evicted (%q, %v), want \"0\"", ev, ok)
	}
	unbounded := NewReplyTable(-1)
	for i := 0; i < 10000; i++ {
		if ev, ok := unbounded.Put(fmt.Sprint(i), nil); ok {
			t.Fatalf("unbounded table evicted %q", ev)
		}
	}
	if unbounded.Len() != 10000 {
		t.Fatalf("unbounded table holds %d, want 10000", unbounded.Len())
	}
}

// TestReplyTableSeenSurvivesEviction: Seen counts insertions ever, so a
// table emptied by eviction is still told apart from a virgin one.
func TestReplyTableSeenSurvivesEviction(t *testing.T) {
	tab := NewReplyTable(1)
	if tab.Seen() != 0 {
		t.Fatalf("virgin Seen = %d", tab.Seen())
	}
	tab.Put("a", nil)
	tab.Put("a", nil) // overwrite: not a new insertion
	tab.Put("b", nil)
	tab.Put("c", nil)
	if tab.Seen() != 3 || tab.Len() != 1 {
		t.Fatalf("Seen %d, Len %d; want 3, 1", tab.Seen(), tab.Len())
	}
}

// TestReplyTableSeedSorted: bulk seeding inserts in sorted ID order whatever
// the map's iteration order, skips IDs already held, and reports what it
// evicted.
func TestReplyTableSeedSorted(t *testing.T) {
	m := map[string][]byte{}
	for i := 0; i < 50; i++ {
		m[fmt.Sprintf("s%02d", i)] = []byte{byte(i)}
	}
	var first []string
	for trial := 0; trial < 20; trial++ {
		tab := NewReplyTable(10)
		tab.Put("s07", []byte("mine"))
		evicted := tab.Seed(m)
		if p, _ := tab.Get("s07"); trial == 0 && string(p) == "mine" {
			t.Fatal("s07 survived: seeding should have evicted the oldest entry")
		}
		held := cachedIDs(&tab, keys(m)...)
		if fmt.Sprint(held) != "[s40 s41 s42 s43 s44 s45 s46 s47 s48 s49]" {
			t.Fatalf("trial %d held %v, want the ten largest IDs", trial, held)
		}
		if len(evicted) != 40 || evicted[0] != "s07" || evicted[1] != "s00" {
			t.Fatalf("trial %d evicted %d IDs starting %v", trial, len(evicted), evicted[:2])
		}
		if trial == 0 {
			first = evicted
		} else if fmt.Sprint(evicted) != fmt.Sprint(first) {
			t.Fatalf("trial %d eviction order differs from trial 0", trial)
		}
	}

	// A held ID keeps its payload and its position.
	tab := NewReplyTable(0)
	tab.Put("s03", []byte("mine"))
	tab.Seed(m)
	if p, _ := tab.Get("s03"); string(p) != "mine" {
		t.Fatalf("seed overwrote a held payload: %q", p)
	}
}

func keys(m map[string][]byte) []string {
	out := make([]string, 0, len(m))
	for i := 0; i < len(m); i++ {
		out = append(out, fmt.Sprintf("s%02d", i))
	}
	return out
}

// TestReplyTableCopyIsolated: the checkpoint/catch-up copy does not change
// when later Puts insert or evict.
func TestReplyTableCopyIsolated(t *testing.T) {
	tab := NewReplyTable(2)
	tab.Put("a", []byte("1"))
	tab.Put("b", []byte("2"))
	cp := tab.Copy()
	tab.Put("c", []byte("3")) // evicts a
	tab.Put("b", []byte("changed"))
	if len(cp) != 2 || string(cp["a"]) != "1" || string(cp["b"]) != "2" {
		t.Fatalf("copy changed under later Puts: %q", cp)
	}
}

// TestReplyTableParking: parked connections come back by ID, once cached,
// or all at once.
func TestReplyTableParking(t *testing.T) {
	// The table only holds connections; identity is all that matters here.
	a1, a2, b, c := new(netsim.Conn), new(netsim.Conn), new(netsim.Conn), new(netsim.Conn)
	tab := NewReplyTable(0)
	tab.Park("a", a1)
	tab.Park("a", a2)
	tab.Park("b", b)
	tab.Park("c", c)
	if got := tab.Unpark("a"); len(got) != 2 || got[0] != a1 || got[1] != a2 {
		t.Fatalf("Unpark(a) = %v", got)
	}
	if got := tab.Unpark("a"); got != nil {
		t.Fatalf("second Unpark(a) = %v", got)
	}
	tab.Put("b", []byte("pb"))
	ans := tab.UnparkCached()
	if len(ans) != 1 || ans[0].RequestID != "b" || string(ans[0].Payload) != "pb" || len(ans[0].Conns) != 1 || ans[0].Conns[0] != b {
		t.Fatalf("UnparkCached = %+v", ans)
	}
	if rest := tab.UnparkAll(); len(rest) != 1 || rest[0] != c {
		t.Fatalf("UnparkAll = %v", rest)
	}
	if rest := tab.UnparkAll(); len(rest) != 0 {
		t.Fatalf("UnparkAll after drain = %v", rest)
	}
}
