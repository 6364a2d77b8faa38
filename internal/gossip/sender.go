package gossip

import "sync"

// sender carries data to many destinations with at most one send in
// flight to each, after the weave router's GossipSender. Pending data
// merges per key and ships as soon as its destination is idle; what
// arrives during a send merges into the next. A destination has a
// goroutine only while it has data pending or in flight, so a sender
// needs no Close.
type sender[K comparable, V any] struct {
	merge func(old, new V) V
	// send ships one destination's batch, in first-queued key order. It
	// is best effort: the periodic rounds repair a lost batch.
	send func(dest string, batch []V)

	mu sync.Mutex
	// outs holds the destinations with data pending or a send in flight.
	outs map[string]*pending[K, V]
}

// pending is one destination's unsent batch and each key's slot in it.
type pending[K comparable, V any] struct {
	batch []V
	slot  map[K]int
}

func newSender[K comparable, V any](merge func(old, new V) V, send func(string, []V)) *sender[K, V] {
	return &sender[K, V]{merge: merge, send: send, outs: make(map[string]*pending[K, V])}
}

// add queues v under key k for dest, starting dest's goroutine if dest
// is idle.
func (s *sender[K, V]) add(dest string, k K, v V) {
	s.mu.Lock()
	p, busy := s.outs[dest]
	if !busy {
		p = &pending[K, V]{slot: make(map[K]int)}
		s.outs[dest] = p
	}
	if i, dup := p.slot[k]; dup {
		p.batch[i] = s.merge(p.batch[i], v)
	} else {
		p.slot[k] = len(p.batch)
		p.batch = append(p.batch, v)
	}
	s.mu.Unlock()
	if !busy {
		go s.run(dest)
	}
}

// run ships dest's pending data until none is left, then retires dest.
func (s *sender[K, V]) run(dest string) {
	for {
		s.mu.Lock()
		p := s.outs[dest]
		if len(p.batch) == 0 {
			delete(s.outs, dest)
			s.mu.Unlock()
			return
		}
		s.outs[dest] = &pending[K, V]{slot: make(map[K]int)}
		s.mu.Unlock()
		s.send(dest, p.batch)
	}
}

// fresh is a queued copy with the comparator that orders its key; of two
// copies of one key, the fresher ships.
type fresh struct {
	Stamped
	cmp Comparator
}

func fresher(old, new fresh) fresh {
	if new.cmp(new.Stamped, old.Stamped) > 0 {
		return new
	}
	return old
}
