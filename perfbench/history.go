package main

import "time"

// write is one put to a key as the client saw it. invoke is when it was
// due, ret when the acknowledgement arrived; an unacknowledged write may
// have taken effect at any later instant, so it has no return time.
type write struct {
	value  string
	invoke time.Time
	ret    time.Time
	acked  bool
}

// legalFinal reports whether v, the value a key reads after every write to
// it has returned or given up, is one a correct store may return: it must
// come from one of writes, and no acknowledged write may strictly follow
// that one (invoked after it returned). Concurrent writes may land in
// either order, and an unacknowledged write may land at any time, so
// neither is ever overwritten in the real-time order.
func legalFinal(writes []write, v string) bool {
	for _, w := range writes {
		if w.value != v {
			continue
		}
		if !w.acked {
			return true
		}
		for _, later := range writes {
			if later.acked && later.invoke.After(w.ret) {
				return false
			}
		}
		return true
	}
	return false
}

// produced reports whether some write to the key, invoked before t, wrote v.
func produced(writes []write, v string, t time.Time) bool {
	for _, w := range writes {
		if w.value == v && !w.invoke.After(t) {
			return true
		}
	}
	return false
}
