// Package gossip implements the EveryWare distributed state exchange
// service (section 2.3 of the paper).
//
// Application components register with a Gossip process, supplying a
// contact address, a unique message type (a state key), and a freshness
// comparator. A component that changes a key offers its new copy to the
// Gossips it registered the key with, which push it on to every other
// holder of the key at once. Periodic synchronization rounds repair what
// a lost offer or push missed: the responsible Gossip polls every holder,
// compares the copies, and pushes the freshest to any stale holder.
//
// Gossip processes cooperate as a distributed service: the pool
// membership is maintained by the NWS clique protocol
// (everyware/internal/clique), responsibility for components is
// partitioned across the pool by hashing, and the pool rebalances itself
// when members come, go, or partition.
package gossip

import (
	"bytes"
	"fmt"
	"sync"
)

// Stamped is one versioned copy of a piece of replicated application
// state. The freshness metadata travels with the data so any Gossip can
// compare copies without understanding their contents.
type Stamped struct {
	// Key is the application-unique message type name, e.g.
	// "ramsey/best_counter_example".
	Key string
	// Counter is a monotonically increasing update counter at the origin.
	Counter uint64
	// Unix is the origin's wall-clock stamp in nanoseconds.
	Unix int64
	// Origin identifies the component that produced this version.
	Origin string
	// Data is the opaque state payload.
	Data []byte
}

// Comparator orders two copies of the same state: it returns >0 if a is
// fresher than b, <0 if staler, 0 if equally fresh. The paper registers
// comparator functions in-process; across the wire EveryWare selects them
// by name from a shared registry.
type Comparator func(a, b Stamped) int

// Built-in comparator names.
const (
	// CmpCounter compares update counters (ties broken by timestamp).
	CmpCounter = "counter"
	// CmpTimestamp compares origin wall-clock stamps.
	CmpTimestamp = "timestamp"
	// CmpBytes compares payloads lexicographically (largest wins); useful
	// for monotone encodings such as "best result so far".
	CmpBytes = "bytes"
)

// comparatorRegistry maps comparator names to implementations. Guarded for
// the rare case of runtime registration.
var (
	cmpMu       sync.RWMutex
	comparators = map[string]Comparator{
		CmpCounter: func(a, b Stamped) int {
			switch {
			case a.Counter > b.Counter:
				return 1
			case a.Counter < b.Counter:
				return -1
			}
			return cmpInt64(a.Unix, b.Unix)
		},
		CmpTimestamp: func(a, b Stamped) int { return cmpInt64(a.Unix, b.Unix) },
		CmpBytes:     func(a, b Stamped) int { return bytes.Compare(a.Data, b.Data) },
	}
)

func cmpInt64(a, b int64) int {
	switch {
	case a > b:
		return 1
	case a < b:
		return -1
	}
	return 0
}

// RegisterComparator installs a custom named comparator. Every process in
// the application (components and Gossips) must register the same name for
// cross-host freshness comparison to work.
func RegisterComparator(name string, cmp Comparator) error {
	cmpMu.Lock()
	defer cmpMu.Unlock()
	if _, dup := comparators[name]; dup {
		return fmt.Errorf("gossip: comparator %q already registered", name)
	}
	comparators[name] = cmp
	return nil
}

// LookupComparator resolves a comparator name.
func LookupComparator(name string) (Comparator, bool) {
	cmpMu.RLock()
	defer cmpMu.RUnlock()
	c, ok := comparators[name]
	return c, ok
}

// comparator resolves a comparator name, falling back to CmpCounter.
func comparator(name string) Comparator {
	if c, ok := LookupComparator(name); ok {
		return c
	}
	c, _ := LookupComparator(CmpCounter)
	return c
}

// Registration records one application component's interest in a state
// key.
type Registration struct {
	// Addr is the component's lingua franca contact address.
	Addr string
	// Key is the state key to synchronize.
	Key string
	// Comparator names the freshness rule for this key.
	Comparator string
}
