package gossip

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"everyware/internal/clique"
	"everyware/internal/wire"
)

func eventually(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("condition not reached within %v: %s", d, msg)
}

// testComponent is a minimal application component: a wire server plus an
// Agent.
type testComponent struct {
	srv   *wire.Server
	agent *Agent
	addr  string
}

func newTestComponent(t *testing.T) *testComponent {
	t.Helper()
	svc := wire.NewService(wire.ServiceConfig{ListenAddr: "127.0.0.1:0", Silent: true})
	addr, err := svc.Start()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	return &testComponent{srv: svc.Server(), agent: NewAgent(svc.Server(), addr), addr: addr}
}

func newTestGossip(t *testing.T, wellKnown ...string) *Server {
	t.Helper()
	g := NewServer(ServerConfig{
		ListenAddr:   "127.0.0.1:0",
		WellKnown:    wellKnown,
		SyncInterval: 30 * time.Millisecond,
		Heartbeat:    20 * time.Millisecond,
		MaxFailures:  3,
	})
	if _, err := g.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	return g
}

// encode and decode run a message through the lingua franca codec.
func encode(m wire.Message) []byte {
	var e wire.Encoder
	m.EncodeWire(&e)
	return e.Bytes()
}

func decode[T any, P interface {
	*T
	wire.Decodable
}](p []byte) (T, error) {
	var v T
	err := P(&v).DecodeWire(wire.NewDecoder(p))
	return v, err
}

func TestStampedRoundTrip(t *testing.T) {
	s := Stamped{Key: "k", Counter: 9, Unix: 123456789, Origin: "a:1", Data: []byte("payload")}
	got, err := decode[Stamped](encode(s))
	if err != nil {
		t.Fatal(err)
	}
	if got.Key != s.Key || got.Counter != s.Counter || got.Unix != s.Unix ||
		got.Origin != s.Origin || !bytes.Equal(got.Data, s.Data) {
		t.Fatalf("got %+v want %+v", got, s)
	}
}

func TestQuickStampedRoundTrip(t *testing.T) {
	f := func(key string, counter uint64, unix int64, origin string, data []byte) bool {
		s := Stamped{Key: key, Counter: counter, Unix: unix, Origin: origin, Data: data}
		got, err := decode[Stamped](encode(s))
		return err == nil && got.Key == key && got.Counter == counter &&
			got.Unix == unix && got.Origin == origin && bytes.Equal(got.Data, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRegistrationsRoundTrip(t *testing.T) {
	rs := []Registration{
		{Addr: "a:1", Key: "k1", Comparator: CmpCounter},
		{Addr: "b:2", Key: "k2", Comparator: CmpBytes},
	}
	got, err := decode[RegTable](encode(RegTable(rs)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != rs[0] || got[1] != rs[1] {
		t.Fatalf("got %+v", got)
	}
}

func TestComparators(t *testing.T) {
	cc, _ := LookupComparator(CmpCounter)
	if cc(Stamped{Counter: 2}, Stamped{Counter: 1}) <= 0 {
		t.Fatal("counter: higher must be fresher")
	}
	if cc(Stamped{Counter: 1, Unix: 5}, Stamped{Counter: 1, Unix: 3}) <= 0 {
		t.Fatal("counter tie: later timestamp must win")
	}
	ct, _ := LookupComparator(CmpTimestamp)
	if ct(Stamped{Unix: 10}, Stamped{Unix: 20}) >= 0 {
		t.Fatal("timestamp: earlier must be staler")
	}
	cb, _ := LookupComparator(CmpBytes)
	if cb(Stamped{Data: []byte("b")}, Stamped{Data: []byte("a")}) <= 0 {
		t.Fatal("bytes: lexicographically larger must win")
	}
	if _, ok := LookupComparator("nope"); ok {
		t.Fatal("unknown comparator must not resolve")
	}
}

func TestRegisterComparatorRejectsDuplicates(t *testing.T) {
	name := "test_dup_cmp"
	if err := RegisterComparator(name, func(a, b Stamped) int { return 0 }); err != nil {
		t.Fatal(err)
	}
	if err := RegisterComparator(name, func(a, b Stamped) int { return 0 }); err == nil {
		t.Fatal("duplicate registration must fail")
	}
}

func TestAgentSetGet(t *testing.T) {
	c := newTestComponent(t)
	c.agent.Set("k", []byte("v1"))
	s, ok := c.agent.Get("k")
	if !ok || string(s.Data) != "v1" || s.Counter != 1 {
		t.Fatalf("got %+v, %v", s, ok)
	}
	c.agent.Set("k", []byte("v2"))
	s, _ = c.agent.Get("k")
	if string(s.Data) != "v2" || s.Counter != 2 {
		t.Fatalf("got %+v", s)
	}
}

func TestAgentInstallRejectsStale(t *testing.T) {
	c := newTestComponent(t)
	c.agent.Set("k", []byte("fresh"))
	stale := Stamped{Key: "k", Counter: 0, Data: []byte("stale")}
	if c.agent.SetStamped(stale) {
		t.Fatal("stale copy must not install")
	}
	s, _ := c.agent.Get("k")
	if string(s.Data) != "fresh" {
		t.Fatalf("state corrupted: %q", s.Data)
	}
}

func TestAgentTrackUnknownComparator(t *testing.T) {
	c := newTestComponent(t)
	if err := c.agent.Track("k", "bogus", nil); err == nil {
		t.Fatal("unknown comparator must be rejected")
	}
}

func TestGossipSynchronizesTwoComponents(t *testing.T) {
	g := newTestGossip(t)
	c1 := newTestComponent(t)
	c2 := newTestComponent(t)
	client := wire.NewClient(time.Second)
	defer client.Close()

	const key = "app/state"
	for _, c := range []*testComponent{c1, c2} {
		if err := c.agent.Track(key, CmpCounter, nil); err != nil {
			t.Fatal(err)
		}
		if err := c.agent.Register(client, g.Addr(), key, CmpCounter, time.Second); err != nil {
			t.Fatal(err)
		}
	}
	c1.agent.Set(key, []byte("hello from c1"))
	eventually(t, 5*time.Second, func() bool {
		s, ok := c2.agent.Get(key)
		return ok && string(s.Data) == "hello from c1"
	}, "c2 should receive c1's state via the Gossip")
}

func TestGossipPropagatesFreshestAmongMany(t *testing.T) {
	g := newTestGossip(t)
	client := wire.NewClient(time.Second)
	defer client.Close()
	const key = "app/best"
	comps := make([]*testComponent, 4)
	for i := range comps {
		comps[i] = newTestComponent(t)
		if err := comps[i].agent.Track(key, CmpBytes, nil); err != nil {
			t.Fatal(err)
		}
		if err := comps[i].agent.Register(client, g.Addr(), key, CmpBytes, time.Second); err != nil {
			t.Fatal(err)
		}
		comps[i].agent.Set(key, []byte(fmt.Sprintf("value-%d", i)))
	}
	// Under the bytes comparator, "value-3" is the freshest.
	eventually(t, 5*time.Second, func() bool {
		for _, c := range comps {
			s, ok := c.agent.Get(key)
			if !ok || string(s.Data) != "value-3" {
				return false
			}
		}
		return true
	}, "all components should converge to the lexicographic maximum")
}

func TestGossipOnUpdateCallback(t *testing.T) {
	g := newTestGossip(t)
	client := wire.NewClient(time.Second)
	defer client.Close()
	const key = "app/cb"
	c1 := newTestComponent(t)
	c2 := newTestComponent(t)
	updates := make(chan Stamped, 8)
	if err := c1.agent.Track(key, CmpCounter, nil); err != nil {
		t.Fatal(err)
	}
	if err := c2.agent.Track(key, CmpCounter, func(s Stamped) { updates <- s }); err != nil {
		t.Fatal(err)
	}
	for _, c := range []*testComponent{c1, c2} {
		if err := c.agent.Register(client, g.Addr(), key, CmpCounter, time.Second); err != nil {
			t.Fatal(err)
		}
	}
	c1.agent.Set(key, []byte("notify"))
	select {
	case s := <-updates:
		if string(s.Data) != "notify" {
			t.Fatalf("update payload = %q", s.Data)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no update callback within 5s")
	}
}

func TestGossipEvictsDeadComponent(t *testing.T) {
	g := newTestGossip(t)
	client := wire.NewClient(time.Second)
	defer client.Close()
	const key = "app/evict"
	c := newTestComponent(t)
	if err := c.agent.Register(client, g.Addr(), key, CmpCounter, time.Second); err != nil {
		t.Fatal(err)
	}
	eventually(t, 2*time.Second, func() bool { return len(g.Registrations()) == 1 }, "registered")
	c.srv.Close() // component dies
	eventually(t, 10*time.Second, func() bool { return len(g.Registrations()) == 0 },
		"dead component should be evicted after MaxFailures")
}

func TestGossipPoolFormsAndSharesRegistrations(t *testing.T) {
	g1 := newTestGossip(t)
	g2 := newTestGossip(t, g1.Addr())
	eventually(t, 5*time.Second, func() bool {
		return len(g1.PoolView().Members) == 2 && len(g2.PoolView().Members) == 2
	}, "two Gossips should form a pool")

	client := wire.NewClient(time.Second)
	defer client.Close()
	c := newTestComponent(t)
	if err := c.agent.Register(client, g1.Addr(), "app/shared", CmpCounter, time.Second); err != nil {
		t.Fatal(err)
	}
	eventually(t, 5*time.Second, func() bool {
		return len(g2.Registrations()) == 1
	}, "registration should replicate to the peer Gossip")
}

func TestGossipPoolSynchronizesAcrossResponsibleMember(t *testing.T) {
	// With a 2-Gossip pool, whichever member owns the key must sync it.
	g1 := newTestGossip(t)
	g2 := newTestGossip(t, g1.Addr())
	eventually(t, 5*time.Second, func() bool {
		return len(g1.PoolView().Members) == 2 && len(g2.PoolView().Members) == 2
	}, "pool formation")
	client := wire.NewClient(time.Second)
	defer client.Close()
	const key = "app/pooled"
	c1 := newTestComponent(t)
	c2 := newTestComponent(t)
	for _, c := range []*testComponent{c1, c2} {
		if err := c.agent.Track(key, CmpCounter, nil); err != nil {
			t.Fatal(err)
		}
		// Register with different pool members.
	}
	if err := c1.agent.Register(client, g1.Addr(), key, CmpCounter, time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c2.agent.Register(client, g2.Addr(), key, CmpCounter, time.Second); err != nil {
		t.Fatal(err)
	}
	c1.agent.Set(key, []byte("pooled-state"))
	eventually(t, 8*time.Second, func() bool {
		s, ok := c2.agent.Get(key)
		return ok && string(s.Data) == "pooled-state"
	}, "state should flow even when registrations landed on different Gossips")
}

func TestAgentConcurrentSetAndGet(t *testing.T) {
	c := newTestComponent(t)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c.agent.Set("k", []byte{byte(i), byte(j)})
				c.agent.Get("k")
			}
		}(i)
	}
	wg.Wait()
	s, ok := c.agent.Get("k")
	if !ok || s.Counter != 800 {
		t.Fatalf("counter = %d, want 800", s.Counter)
	}
}

func TestAntiEntropyReachesLateJoiningGossip(t *testing.T) {
	g1 := newTestGossip(t)
	client := wire.NewClient(time.Second)
	defer client.Close()
	// A component registers BEFORE the second Gossip exists.
	c := newTestComponent(t)
	if err := c.agent.Register(client, g1.Addr(), "app/early", CmpCounter, time.Second); err != nil {
		t.Fatal(err)
	}
	g2 := newTestGossip(t, g1.Addr())
	eventually(t, 5*time.Second, func() bool {
		return len(g2.PoolView().Members) == 2
	}, "pool formation")
	// Anti-entropy must deliver the early registration to g2.
	eventually(t, 10*time.Second, func() bool {
		return len(g2.Registrations()) == 1
	}, "late-joining Gossip should learn earlier registrations via anti-entropy")
}

func TestPoolSurvivesGossipDeath(t *testing.T) {
	g1 := newTestGossip(t)
	g2 := newTestGossip(t, g1.Addr())
	eventually(t, 5*time.Second, func() bool {
		return len(g1.PoolView().Members) == 2 && len(g2.PoolView().Members) == 2
	}, "pool formation")
	client := wire.NewClient(time.Second)
	defer client.Close()
	const key = "app/ha"
	c1 := newTestComponent(t)
	c2 := newTestComponent(t)
	for _, c := range []*testComponent{c1, c2} {
		if err := c.agent.Track(key, CmpCounter, nil); err != nil {
			t.Fatal(err)
		}
		if err := c.agent.Register(client, g1.Addr(), key, CmpCounter, time.Second); err != nil {
			t.Fatal(err)
		}
	}
	// The registration replicated to g2; wait for it so the kill cannot
	// race the forward.
	eventually(t, 5*time.Second, func() bool { return len(g2.Registrations()) >= 2 },
		"registrations replicated to g2")
	g1.Close() // the registering Gossip dies
	// Synchronization must continue through the surviving pool member,
	// which rebalances responsibility via the clique protocol.
	c1.agent.Set(key, []byte("after-death"))
	eventually(t, 10*time.Second, func() bool {
		s, ok := c2.agent.Get(key)
		return ok && string(s.Data) == "after-death"
	}, "state should still synchronize after the responsible Gossip dies")
}

func TestDeregisterRemovesRegistration(t *testing.T) {
	g := newTestGossip(t)
	client := wire.NewClient(time.Second)
	defer client.Close()
	c := newTestComponent(t)
	if err := c.agent.Register(client, g.Addr(), "app/leave", CmpCounter, time.Second); err != nil {
		t.Fatal(err)
	}
	eventually(t, 2*time.Second, func() bool { return len(g.Registrations()) == 1 }, "registered")
	if err := c.agent.Deregister(client, g.Addr(), "app/leave", time.Second); err != nil {
		t.Fatal(err)
	}
	if len(g.Registrations()) != 0 {
		t.Fatalf("registrations after deregister: %v", g.Registrations())
	}
	// Deregistering again is a harmless no-op.
	if err := c.agent.Deregister(client, g.Addr(), "app/leave", time.Second); err != nil {
		t.Fatal(err)
	}
}

// batchLog records a sender's sends; the first send to each destination
// blocks until release is closed, so the test controls what arrives while
// a send is in flight.
type batchLog struct {
	mu      sync.Mutex
	batches map[string][][]Registration
	started chan string
	release chan struct{}
}

func (l *batchLog) send(dest string, batch []Registration) {
	l.mu.Lock()
	first := len(l.batches[dest]) == 0
	l.batches[dest] = append(l.batches[dest], batch)
	l.mu.Unlock()
	if first {
		l.started <- dest
		<-l.release
	}
}

// idle reports whether every destination of s has drained.
func idle[K comparable, V any](s *sender[K, V]) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.outs) == 0
}

// TestShareCoalescerMergesPerPeer drives the registration-share sender
// directly (no network): shares queue per destination peer, merge
// last-write-wins per (addr, key) keeping first-arrival order, keep
// merging while a send to the peer is in flight, and drain exactly once.
func TestShareCoalescerMergesPerPeer(t *testing.T) {
	log := &batchLog{
		batches: make(map[string][][]Registration),
		started: make(chan string, 2),
		release: make(chan struct{}),
	}
	s := NewServer(ServerConfig{})
	s.addr = "self"
	s.shares = newSender[regKey, Registration](func(_, r Registration) Registration { return r }, log.send)
	view := clique.View{Members: []string{"peer-b:1", "peer-a:1", "self"}}

	regA := Registration{Addr: "comp1:1", Key: "app/a", Comparator: CmpCounter}
	regB := Registration{Addr: "comp2:1", Key: "app/b", Comparator: CmpCounter}
	regA2 := Registration{Addr: "comp1:1", Key: "app/a", Comparator: CmpBytes}
	regC := Registration{Addr: "comp3:1", Key: "app/c", Comparator: CmpCounter}

	// An idle peer ships at once: the first share goes out alone.
	s.enqueueShare(view, regC)
	started := map[string]bool{<-log.started: true, <-log.started: true}
	if !started["peer-a:1"] || !started["peer-b:1"] || started["self"] {
		t.Fatalf("first sends went to %v, want peer-a:1 and peer-b:1 only", started)
	}
	// While those sends are in flight, later shares merge per (addr, key).
	s.enqueueShare(view, regA)
	s.enqueueShare(view, regB)
	s.enqueueShare(view, regA2) // same (addr, key) as regA: supersedes it
	close(log.release)
	eventually(t, 2*time.Second, func() bool { return idle(s.shares) }, "shares drained")

	for _, peer := range []string{"peer-a:1", "peer-b:1"} {
		got := log.batches[peer]
		if len(got) != 2 {
			t.Fatalf("%s got %d sends, want 2 (each share shipped exactly once)", peer, len(got))
		}
		if len(got[0]) != 1 || got[0][0] != regC {
			t.Fatalf("%s first send = %+v, want [regC]", peer, got[0])
		}
		// Last write wins in the original slot: regA2 replaced regA.
		if len(got[1]) != 2 || got[1][0] != regA2 || got[1][1] != regB {
			t.Fatalf("%s second send = %+v, want [regA2 regB]", peer, got[1])
		}
	}
	if len(log.batches) != 2 {
		t.Fatalf("sends went to %d destinations, want 2", len(log.batches))
	}
}

// TestSenderKeepsFreshestCopy checks the push merge rule: of two copies of
// one key queued while a send is in flight, the fresher under the key's
// comparator ships, whatever their arrival order.
func TestSenderKeepsFreshestCopy(t *testing.T) {
	release := make(chan struct{})
	sent := make(chan []fresh, 2)
	s := newSender[string, fresh](fresher, func(_ string, b []fresh) {
		sent <- b
		<-release
	})
	cmp, _ := LookupComparator(CmpCounter)
	s.add("h", "k", fresh{Stamped: Stamped{Key: "k", Counter: 1}, cmp: cmp})
	<-sent // in flight
	s.add("h", "k", fresh{Stamped: Stamped{Key: "k", Counter: 3}, cmp: cmp})
	s.add("h", "k", fresh{Stamped: Stamped{Key: "k", Counter: 2}, cmp: cmp})
	close(release)
	if b := <-sent; len(b) != 1 || b[0].Counter != 3 {
		t.Fatalf("second send = %+v, want only counter 3", b)
	}
	eventually(t, 2*time.Second, func() bool { return idle(s) }, "sender drained")
}

// newGossipWith starts a Gossip whose only state exchange is by push:
// sync rounds, heartbeats and probe ticks are an hour apart.
func newGossipWith(t *testing.T, wellKnown ...string) *Server {
	t.Helper()
	g := NewServer(ServerConfig{
		ListenAddr:   "127.0.0.1:0",
		WellKnown:    wellKnown,
		SyncInterval: time.Hour,
	})
	if _, err := g.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	return g
}

// TestSetPushesToHolderAtOtherGossip checks the push path end to end: a
// Set on a component registered at one Gossip installs within 1s on a
// holder registered at the other, with no sync round, and the holder
// that installed by push offers nothing of its own.
func TestSetPushesToHolderAtOtherGossip(t *testing.T) {
	g1 := newGossipWith(t)
	g2 := newGossipWith(t, g1.Addr())
	eventually(t, time.Second, func() bool {
		return len(g1.PoolView().Members) == 2 && len(g2.PoolView().Members) == 2
	}, "pool formation from the probe at Start")
	client := wire.NewClient(time.Second)
	defer client.Close()
	const key = "app/pushed"
	c1 := newTestComponent(t)
	c2 := newTestComponent(t)
	installed := make(chan Stamped, 1)
	if err := c1.agent.Track(key, CmpCounter, nil); err != nil {
		t.Fatal(err)
	}
	if err := c2.agent.Track(key, CmpCounter, func(s Stamped) { installed <- s }); err != nil {
		t.Fatal(err)
	}
	if err := c1.agent.Register(client, g1.Addr(), key, CmpCounter, time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c2.agent.Register(client, g2.Addr(), key, CmpCounter, time.Second); err != nil {
		t.Fatal(err)
	}
	eventually(t, time.Second, func() bool {
		return len(g1.Registrations()) == 2 && len(g2.Registrations()) == 2
	}, "registrations shared across the pool")

	c1.agent.Set(key, []byte("pushed"))
	select {
	case s := <-installed:
		if string(s.Data) != "pushed" {
			t.Fatalf("installed %q, want %q", s.Data, "pushed")
		}
	case <-time.After(time.Second):
		t.Fatal("Set did not reach the holder at the other Gossip within 1s")
	}
	if !idle(c2.agent.offers) {
		t.Fatal("holder queued an offer for a copy it installed by push")
	}
	if n := g2.Metrics().Counter("gossip.offer.received").Value(); n != 0 {
		t.Fatalf("holder's Gossip received %d offers, want 0", n)
	}
	if n := g1.Metrics().Counter("gossip.offer.relayed").Value(); n != 1 {
		t.Fatalf("origin's Gossip relayed %d offers, want 1", n)
	}
	if n := g1.Metrics().Counter("gossip.sync.rounds").Value(); n != 0 {
		t.Fatalf("%d sync rounds ran, want 0: the push alone must deliver", n)
	}
}

// TestOfferToOlderGossipFallsBackToSync models a Gossip that predates
// MsgOffer: the offer fails once, is not retried, and the sync round
// still converges the holders.
func TestOfferToOlderGossipFallsBackToSync(t *testing.T) {
	g := newTestGossip(t)
	var offers atomic.Int64
	g.srv.Register(MsgOffer, wire.HandlerFunc(func(string, *wire.Packet) (*wire.Packet, error) {
		offers.Add(1)
		return nil, errors.New("no handler for message type")
	}))
	client := wire.NewClient(time.Second)
	defer client.Close()
	const key = "app/older"
	c1 := newTestComponent(t)
	c2 := newTestComponent(t)
	for _, c := range []*testComponent{c1, c2} {
		if err := c.agent.Track(key, CmpCounter, nil); err != nil {
			t.Fatal(err)
		}
		if err := c.agent.Register(client, g.Addr(), key, CmpCounter, time.Second); err != nil {
			t.Fatal(err)
		}
	}
	c1.agent.Set(key, []byte("via-sync"))
	eventually(t, 5*time.Second, func() bool {
		s, ok := c2.agent.Get(key)
		return ok && string(s.Data) == "via-sync"
	}, "the sync round should deliver what the offer could not")
	eventually(t, 2*time.Second, func() bool { return idle(c1.agent.offers) }, "offer sender drained")
	rounds := g.Metrics().Counter("gossip.sync.rounds").Value()
	eventually(t, 2*time.Second, func() bool {
		return g.Metrics().Counter("gossip.sync.rounds").Value() >= rounds+3
	}, "further sync rounds")
	if n := offers.Load(); n != 1 {
		t.Fatalf("older Gossip saw %d offers, want 1 (no retry loop)", n)
	}
}
