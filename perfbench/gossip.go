package main

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"everyware/internal/gossip"
)

// gossipSpec sizes the gossip workload.
type gossipSpec struct {
	Gossips    int     `json:"gossips"`
	Components int     `json:"components"`
	Keys       int     `json:"keys"`
	Rate       float64 `json:"rate_per_s"`
	// MinSpacing is the fewest sync intervals between two updates of
	// one key.
	MinSpacing float64 `json:"min_key_spacing_intervals"`
	TimeoutMS  int     `json:"timeout_ms"`
}

// update is one replicated state change: a Set on the key's owner that
// ends when the last of the other holders installs the new copy.
type update struct {
	key        int
	counter    uint64
	origin     string
	due, sent  time.Duration
	setEnd     time.Duration
	remaining  int
	lastAt     time.Duration
	lastHolder int
	done       chan struct{}
}

// gossipBench is an open loop of state updates: components each hold
// every key under the counter comparator; every key has one seeded owner
// (a counter only orders versions from one origin), and the generator
// calls Agent.Set on the owner of a seeded key at a fixed rate.
type gossipBench struct {
	spec   gossipSpec
	f      *fleet
	e      *env
	agents []*gossip.Agent
	names  []string
	keys   []string
	owner  []int
	order  []int // seeded key order; keys take turns round-robin
	next   int
	data   []byte

	// updates are the measured phase's updates, for trees.
	updates []*update

	mu       sync.Mutex
	inflight map[int]*update // by key
	installs int64
	base     tally // counts at the end of warm-up
}

func newGossip(s gossipSpec, seed int64) *gossipBench {
	rng := rand.New(rand.NewSource(seed))
	b := &gossipBench{spec: s, inflight: make(map[int]*update)}
	for k := 0; k < s.Keys; k++ {
		b.keys = append(b.keys, fmt.Sprintf("bench/state-%02d", k))
		b.owner = append(b.owner, rng.Intn(s.Components))
	}
	b.order = rng.Perm(s.Keys)
	b.data = make([]byte, 64)
	rng.Read(b.data)
	return b
}

func (b *gossipBench) loop() string {
	return fmt.Sprintf("open: %.0f updates/s over %d keys x %d holders, %d Gossips", b.spec.Rate, b.spec.Keys, b.spec.Components, b.spec.Gossips)
}

func (b *gossipBench) fleetOf() *fleet { return b.f }

func (b *gossipBench) close() {
	if b.f != nil {
		b.f.close()
	}
}

func (b *gossipBench) start(e *env) error {
	if spacing := float64(b.spec.Keys) / b.spec.Rate; spacing < b.spec.MinSpacing*syncInterval.Seconds() {
		return fmt.Errorf("gossip rate %.0f/s updates each key every %.2fs, under %.0f sync intervals", b.spec.Rate, spacing, b.spec.MinSpacing)
	}
	b.e = e
	b.f = newFleet(e)
	if err := b.f.startGossips(b.spec.Gossips); err != nil {
		return err
	}
	if err := b.f.waitClique(20 * time.Second); err != nil {
		return err
	}
	for c := 0; c < b.spec.Components; c++ {
		name := fmt.Sprintf("component%02d", c)
		_, agent, err := b.f.component(name)
		if err != nil {
			return err
		}
		b.agents = append(b.agents, agent)
		b.names = append(b.names, name)
		holder := c
		gaddr := b.f.gossips[c%len(b.f.gossips)].Addr()
		for k, key := range b.keys {
			k := k
			if err := agent.Track(key, gossip.CmpCounter, func(st gossip.Stamped) { b.installed(k, holder, st) }); err != nil {
				return err
			}
			if err := agent.Register(b.f.client, gaddr, key, gossip.CmpCounter, 2*time.Second); err != nil {
				return fmt.Errorf("register %s: %w", key, err)
			}
		}
	}
	// Every Gossip must know every registration before the pool is ready.
	want := b.spec.Components * b.spec.Keys
	deadline := time.Now().Add(20 * time.Second)
	for {
		ready := true
		for _, g := range b.f.gossips {
			if len(g.Registrations()) < want {
				ready = false
			}
		}
		if ready {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("registrations did not spread to every Gossip")
		}
		time.Sleep(time.Millisecond)
	}
	// Readiness ends with the first update replicated to every holder.
	u := b.set(b.e.now())
	return b.wait(u)
}

// warm replicates one update of every key, so every holder holds a copy
// and the measured phase only sees updates.
func (b *gossipBench) warm() error {
	var us []*update
	for range b.keys {
		us = append(us, b.set(b.e.now()))
	}
	for _, u := range us {
		if err := b.wait(u); err != nil {
			return err
		}
	}
	b.base = takeTally(b.f.registries())
	return nil
}

// set updates the next key on its owner.
func (b *gossipBench) set(due time.Duration) *update {
	k := b.order[b.next]
	b.next = (b.next + 1) % len(b.order)
	o := b.owner[k]
	u := &update{key: k, due: due, remaining: len(b.agents) - 1, done: make(chan struct{})}
	b.mu.Lock()
	u.sent = b.e.now()
	b.inflight[k] = u
	st := b.agents[o].Set(b.keys[k], b.data)
	u.counter, u.origin = st.Counter, st.Origin
	u.setEnd = b.e.now()
	b.mu.Unlock()
	return u
}

// installed is every holder's Track callback.
func (b *gossipBench) installed(k, holder int, st gossip.Stamped) {
	now := b.e.now()
	b.mu.Lock()
	defer b.mu.Unlock()
	b.installs++
	u := b.inflight[k]
	if u == nil || st.Counter != u.counter || st.Origin != u.origin || u.remaining == 0 {
		return
	}
	u.remaining--
	u.lastAt, u.lastHolder = now, holder
	if u.remaining == 0 {
		close(u.done)
	}
}

func (b *gossipBench) wait(u *update) error {
	select {
	case <-u.done:
		return nil
	case <-time.After(time.Duration(b.spec.TimeoutMS) * time.Millisecond):
		return fmt.Errorf("update of %s did not reach every holder", b.keys[u.key])
	}
}

func (b *gossipBench) measure(d time.Duration, _ bool) (*phase, error) {
	ph := newPhase()
	ph.from = b.e.now()
	due := schedule(b.spec.Rate, d, ph.from)
	var us []*update
	b.mu.Lock()
	installs0 := b.installs
	b.mu.Unlock()
	pace, err := newPacer()
	if err != nil {
		return nil, err
	}
	defer pace.close()
	for _, t := range due {
		if err := pace.sleep(t - b.e.now()); err != nil {
			return nil, err
		}
		us = append(us, b.set(t))
	}
	for _, u := range us {
		ph.attempted++
		if err := b.wait(u); err != nil {
			ph.failed++
			continue
		}
	}
	ph.to = b.e.now()
	b.mu.Lock()
	ph.layer["gossip.installs"] = float64(b.installs - installs0)
	b.mu.Unlock()
	for _, u := range us {
		select {
		case <-u.done:
		default:
			continue
		}
		ph.ops = append(ph.ops, ms(u.lastAt-u.due))
		ph.late = append(ph.late, ms(u.sent-u.due))
	}
	ph.layer["gossip.updates"] = float64(ph.completed())
	ph.throughput = float64(ph.completed()) / (ph.to - ph.from).Seconds()
	b.updates = us
	return ph, nil
}

// verify checks that every holder has the newest copy of every key and
// that the pool neither evicted a registration nor changed its view
// since warm-up.
func (b *gossipBench) verify() []string {
	var checks []string
	for k, key := range b.keys {
		want, ok := b.agents[b.owner[k]].Get(key)
		if !ok {
			checks = append(checks, fmt.Sprintf("%s: owner holds no copy", key))
			continue
		}
		for h, a := range b.agents {
			got, ok := a.Get(key)
			if !ok || got.Counter != want.Counter || got.Origin != want.Origin {
				checks = append(checks, fmt.Sprintf("%s: %s holds counter %d, newest is %d", key, b.names[h], got.Counter, want.Counter))
			}
		}
	}
	c := takeTally(b.f.registries()).since(b.base)
	if n := c.count["gossip.evictions"]; n != 0 {
		checks = append(checks, fmt.Sprintf("%d registrations evicted", n))
	}
	if n := c.count["clique.view.changes"]; n != 0 {
		checks = append(checks, fmt.Sprintf("%d clique view changes", n))
	}
	return checks
}

// trees builds each update's tree. The update is causally separate from
// the sync round that carries it (the round is rooted by the Gossip's own
// timer), so the tree is assembled: the op root spans due time to the
// last install, with the generator's lateness, the Set call, the wait for
// the responsible Gossip's round (from that round's own start), and the
// round's span tree, found through the put_state serve span that
// delivered the last copy.
func (b *gossipBench) trees(forest map[uint64]*node, idx spanIndex) []*node {
	byHolder := make(map[string][]*span)
	for _, s := range idx.named("wire.serve.gossip.put_state") {
		byHolder[s.Service] = append(byHolder[s.Service], s)
	}
	var out []*node
	for _, u := range b.updates {
		select {
		case <-u.done:
		default:
			continue
		}
		root := &node{s: &span{Name: "op.gossip", Start: int64(u.due), End: int64(u.lastAt)}}
		root.kids = append(root.kids,
			&node{s: &span{Name: "gen.late", Start: int64(u.due), End: int64(u.sent)}},
			&node{s: &span{Name: "bench.agent.set", Start: int64(u.sent), End: int64(u.setEnd)}})
		if round := roundOf(forest, byHolder[b.names[u.lastHolder]], int64(u.lastAt)); round != nil {
			if round.s.Start > int64(u.setEnd) {
				root.kids = append(root.kids, &node{s: &span{Name: "gossip.timer_wait", Start: int64(u.setEnd), End: round.s.Start}})
			}
			root.kids = append(root.kids, round)
		}
		sort.Slice(root.kids, func(i, j int) bool { return root.kids[i].s.End > root.kids[j].s.End })
		out = append(out, root)
	}
	return out
}

// roundOf finds the serve span (in start order) that contains t and
// returns the root of its trace: the sync round that made the push.
func roundOf(forest map[uint64]*node, serves []*span, t int64) *node {
	i := sort.Search(len(serves), func(i int) bool { return serves[i].Start > t })
	for j := i - 1; j >= 0 && j >= i-4; j-- {
		if s := serves[j]; s.Start <= t && t <= s.End {
			n := forest[s.ID]
			for n != nil {
				p, ok := forest[n.s.Parent]
				if !ok || n.s.Parent == 0 {
					return n
				}
				n = p
			}
		}
	}
	return nil
}
