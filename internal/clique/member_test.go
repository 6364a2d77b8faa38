package clique

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"everyware/internal/wire"
)

// fastConfig returns protocol timings suitable for tests.
func fastConfig(peers []string) Config {
	return Config{
		Peers:             peers,
		HeartbeatInterval: 10 * time.Millisecond,
		ProbeInterval:     25 * time.Millisecond,
		TokenTimeout:      60 * time.Millisecond,
	}
}

// testNet runs clique endpoints over a shared in-process
// wire.MemTransport — every member is a real wire.Service listening at
// its own ID — with deterministic partition injection via SendFilter
// and host failure modelled by closing the victim's service. This is
// the fabric the clique-private mem transport used to provide, now
// exercising the full protocol stack.
type testNet struct {
	t  *testing.T
	mt *wire.MemTransport

	mu    sync.Mutex
	group map[string]int
	nodes map[string]*testNode
}

type testNode struct {
	svc *wire.Service
	ep  *Endpoint
}

func newTestNet(t *testing.T) *testNet {
	return &testNet{
		t:     t,
		mt:    wire.NewMemTransport(),
		group: make(map[string]int),
		nodes: make(map[string]*testNode),
	}
}

// Endpoint binds id on the fabric and returns its clique endpoint.
func (n *testNet) Endpoint(id string) *Endpoint {
	n.t.Helper()
	svc := wire.NewService(wire.ServiceConfig{
		ListenAddr:  id,
		Transport:   n.mt,
		DialTimeout: 100 * time.Millisecond,
		Silent:      true,
	})
	if _, err := svc.Start(); err != nil {
		n.t.Fatalf("listen %s: %v", id, err)
	}
	ep := NewEndpoint(svc.Server(), id, svc.Client(), 150*time.Millisecond)
	ep.SetSendFilter(func(to string, _ *Message, send func() error) error {
		n.mu.Lock()
		same := n.group[id] == n.group[to]
		n.mu.Unlock()
		if !same {
			return fmt.Errorf("%w: %s -> %s partitioned", ErrUnreachable, id, to)
		}
		return send()
	})
	node := &testNode{svc: svc, ep: ep}
	n.mu.Lock()
	n.nodes[id] = node
	n.mu.Unlock()
	n.t.Cleanup(func() {
		ep.Close()
		svc.Close()
	})
	return ep
}

// SetPartition assigns id to a partition group; messages flow only
// within a group (group 0 is the default connected component).
func (n *testNet) SetPartition(id string, g int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.group[id] = g
}

// Heal moves every endpoint back to group 0.
func (n *testNet) Heal() {
	n.mu.Lock()
	defer n.mu.Unlock()
	for id := range n.group {
		n.group[id] = 0
	}
}

// Kill closes id's service, modelling host failure: peers' dials are
// refused and their cached connections break.
func (n *testNet) Kill(id string) {
	n.mu.Lock()
	node := n.nodes[id]
	delete(n.nodes, id)
	n.mu.Unlock()
	if node != nil {
		node.ep.Close()
		node.svc.Close()
	}
}

// startClique spins up n members named m0..m(n-1) on a shared fabric.
func startClique(t *testing.T, n int) (*testNet, []*Member, []string) {
	t.Helper()
	net := newTestNet(t)
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("m%02d", i)
	}
	members := make([]*Member, n)
	for i, id := range ids {
		tr := net.Endpoint(id)
		members[i] = New(fastConfig(ids), tr)
		members[i].Start()
	}
	t.Cleanup(func() {
		for _, m := range members {
			m.Stop()
		}
	})
	return net, members, ids
}

// eventually polls cond until it holds or the deadline passes.
func eventually(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("condition not reached within %v: %s", d, msg)
}

// agreeOn reports whether all given members share a view with exactly the
// expected membership.
func agreeOn(members []*Member, want []string) bool {
	for _, m := range members {
		v := m.View()
		if len(v.Members) != len(want) {
			return false
		}
		for i := range want {
			if v.Members[i] != want[i] {
				return false
			}
		}
		if v.Leader != want[0] {
			return false
		}
	}
	return true
}

func TestSingletonCliqueIsItsOwnLeader(t *testing.T) {
	net := newTestNet(t)
	m := New(fastConfig([]string{"solo"}), net.Endpoint("solo"))
	m.Start()
	defer m.Stop()
	v := m.View()
	if v.Leader != "solo" || len(v.Members) != 1 {
		t.Fatalf("view = %+v", v)
	}
	if !m.IsLeader() {
		t.Fatal("singleton must lead itself")
	}
}

func TestCliqueForms(t *testing.T) {
	_, members, ids := startClique(t, 5)
	eventually(t, 3*time.Second, func() bool { return agreeOn(members, ids) },
		"5 members should converge to one clique led by m00")
}

// TestCliqueJoinLatency is the join-latency regression: members started
// one after another merge through the probes each sends at Start, not on
// the first probe tick, which here is an hour away.
func TestCliqueJoinLatency(t *testing.T) {
	net := newTestNet(t)
	ids := []string{"m00", "m01", "m02"}
	var members []*Member
	for i, id := range ids {
		cfg := fastConfig(ids[:i+1])
		cfg.ProbeInterval = time.Hour
		m := New(cfg, net.Endpoint(id))
		m.Start()
		t.Cleanup(m.Stop)
		members = append(members, m)
	}
	eventually(t, time.Second, func() bool { return agreeOn(members, ids) },
		"3 members should reach the full view within 1s without a probe tick")
}

func TestCliqueDetectsKilledMember(t *testing.T) {
	net, members, ids := startClique(t, 4)
	eventually(t, 3*time.Second, func() bool { return agreeOn(members, ids) }, "initial formation")
	net.Kill("m02")
	members[2].Stop()
	want := []string{"m00", "m01", "m03"}
	rest := []*Member{members[0], members[1], members[3]}
	eventually(t, 3*time.Second, func() bool { return agreeOn(rest, want) },
		"survivors should drop the killed member")
}

func TestCliqueSurvivesLeaderDeath(t *testing.T) {
	net, members, ids := startClique(t, 4)
	eventually(t, 3*time.Second, func() bool { return agreeOn(members, ids) }, "initial formation")
	net.Kill("m00") // kill the leader
	members[0].Stop()
	want := []string{"m01", "m02", "m03"}
	rest := members[1:]
	eventually(t, 3*time.Second, func() bool { return agreeOn(rest, want) },
		"survivors should elect m01 after leader death")
}

func TestCliquePartitionsIntoSubcliques(t *testing.T) {
	net, members, ids := startClique(t, 6)
	eventually(t, 3*time.Second, func() bool { return agreeOn(members, ids) }, "initial formation")
	// Partition: {m00,m01,m02} vs {m03,m04,m05}.
	for i := 3; i < 6; i++ {
		net.SetPartition(ids[i], 1)
	}
	sideA, sideB := members[:3], members[3:]
	eventually(t, 5*time.Second, func() bool {
		return agreeOn(sideA, []string{"m00", "m01", "m02"}) &&
			agreeOn(sideB, []string{"m03", "m04", "m05"})
	}, "partition should yield two subcliques led by m00 and m03")
}

func TestCliqueMergesAfterHeal(t *testing.T) {
	net, members, ids := startClique(t, 6)
	eventually(t, 3*time.Second, func() bool { return agreeOn(members, ids) }, "initial formation")
	for i := 3; i < 6; i++ {
		net.SetPartition(ids[i], 1)
	}
	eventually(t, 5*time.Second, func() bool {
		return agreeOn(members[:3], []string{"m00", "m01", "m02"}) &&
			agreeOn(members[3:], []string{"m03", "m04", "m05"})
	}, "subcliques before heal")
	net.Heal()
	eventually(t, 5*time.Second, func() bool { return agreeOn(members, ids) },
		"healed network should merge back to the full clique")
}

func TestCliqueOnChangeFires(t *testing.T) {
	net := newTestNet(t)
	ids := []string{"a", "b"}
	changes := make(chan View, 64)
	cfg := fastConfig(ids)
	cfg.OnChange = func(v View) { changes <- v }
	ma := New(cfg, net.Endpoint("a"))
	mb := New(fastConfig(ids), net.Endpoint("b"))
	ma.Start()
	mb.Start()
	defer ma.Stop()
	defer mb.Stop()
	deadline := time.After(3 * time.Second)
	for {
		select {
		case v := <-changes:
			if len(v.Members) == 2 {
				return // observed the merge
			}
		case <-deadline:
			t.Fatal("OnChange never reported the 2-member view")
		}
	}
}

func TestViewDominates(t *testing.T) {
	a := View{Seq: 2, Leader: "x"}
	b := View{Seq: 1, Leader: "a"}
	if !a.Dominates(b) || b.Dominates(a) {
		t.Fatal("higher seq must dominate")
	}
	c := View{Seq: 2, Leader: "a"}
	if !c.Dominates(a) {
		t.Fatal("same seq, smaller leader must dominate")
	}
}

func TestMessageEncodeDecodeRoundTrip(t *testing.T) {
	msg := &Message{
		Kind: KindToken,
		From: "host-a:123",
		View: View{Seq: 9, Leader: "host-a:123", Members: []string{"host-a:123", "host-b:456"}},
		Token: &Token{
			Origin:  "host-a:123",
			Seq:     9,
			Members: []string{"host-a:123", "host-b:456"},
			Visited: []string{"host-a:123"},
			Failed:  []string{"host-c:789"},
		},
	}
	got, err := DecodeMessage(EncodeMessage(msg))
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != msg.Kind || got.From != msg.From || !got.View.Equal(msg.View) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if got.Token == nil || got.Token.Origin != "host-a:123" || len(got.Token.Failed) != 1 {
		t.Fatalf("token mismatch: %+v", got.Token)
	}
}

func TestMessageWithoutTokenRoundTrip(t *testing.T) {
	msg := &Message{Kind: KindProbe, From: "x", View: View{Seq: 1, Leader: "x", Members: []string{"x"}}}
	got, err := DecodeMessage(EncodeMessage(msg))
	if err != nil {
		t.Fatal(err)
	}
	if got.Token != nil {
		t.Fatal("expected nil token")
	}
}

func TestDecodeMessageRejectsGarbage(t *testing.T) {
	if _, err := DecodeMessage([]byte{1, 2, 3}); err == nil {
		t.Fatal("garbage must not decode")
	}
	if _, err := DecodeMessage(nil); err == nil {
		t.Fatal("empty must not decode")
	}
}

// Property: message encoding round-trips arbitrary views.
func TestQuickMessageRoundTrip(t *testing.T) {
	f := func(kind uint8, from, leader string, seq uint64, members []string) bool {
		msg := &Message{
			Kind: Kind(kind),
			From: from,
			View: View{Seq: seq, Leader: leader, Members: members},
		}
		got, err := DecodeMessage(EncodeMessage(msg))
		if err != nil {
			return false
		}
		if got.Kind != msg.Kind || got.From != from || got.View.Seq != seq || got.View.Leader != leader {
			return false
		}
		if len(got.View.Members) != len(members) {
			return false
		}
		for i := range members {
			if got.View.Members[i] != members[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSortedUnionAndMinID(t *testing.T) {
	u := sortedUnion([]string{"c", "a"}, []string{"b", "a"})
	if len(u) != 3 || u[0] != "a" || u[1] != "b" || u[2] != "c" {
		t.Fatalf("union = %v", u)
	}
	if LeaderID(u) != "a" {
		t.Fatalf("LeaderID = %q", LeaderID(u))
	}
	if LeaderID(nil) != "" {
		t.Fatal("LeaderID(nil) must be empty")
	}
}

// TestCliqueRandomizedPartitionHealConverges stress-tests the protocol: a
// random sequence of partitions and heals must always converge back to
// the full clique after the final heal.
func TestCliqueRandomizedPartitionHealConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped in short mode")
	}
	rng := rand.New(rand.NewSource(1998))
	net, members, ids := startClique(t, 5)
	eventually(t, 3*time.Second, func() bool { return agreeOn(members, ids) }, "initial formation")
	for round := 0; round < 3; round++ {
		// Random partition into up to 3 groups.
		for _, id := range ids {
			net.SetPartition(id, rng.Intn(3))
		}
		time.Sleep(150 * time.Millisecond) // let subcliques form
		net.Heal()
		eventually(t, 8*time.Second, func() bool { return agreeOn(members, ids) },
			fmt.Sprintf("round %d: clique should reconverge after heal", round))
	}
}

// TestCliqueSequentialKills verifies the view shrinks correctly as members
// die one by one, leadership always falling to the smallest survivor.
func TestCliqueSequentialKills(t *testing.T) {
	net, members, ids := startClique(t, 5)
	eventually(t, 3*time.Second, func() bool { return agreeOn(members, ids) }, "initial formation")
	for kill := 0; kill < 3; kill++ {
		net.Kill(ids[kill])
		members[kill].Stop()
		want := ids[kill+1:]
		rest := members[kill+1:]
		eventually(t, 5*time.Second, func() bool { return agreeOn(rest, want) },
			fmt.Sprintf("survivors after killing %s", ids[kill]))
	}
}

// TestTokenRelayRecoversMissedViewUpdate: a member that missed the
// view-update broadcast (dropped message) keeps relaying tokens for the
// new configuration while stuck in a stale singleton view. In the
// well-known-server topology its home list is empty, so it probes
// nobody; the leader's view contains it, so merge probes skip it. The
// relay-time nudge to the token origin must recover it.
func TestTokenRelayRecoversMissedViewUpdate(t *testing.T) {
	net := newTestNet(t)
	// Join-through topology: "c" is the well-known member (no peers of
	// its own); "a" and "b" join through it. Union leader is "a", so the
	// stranded member "c" is a follower with an empty home list.
	peersOf := map[string][]string{"c": nil, "a": {"c"}, "b": {"c", "a"}}
	ids := []string{"a", "b", "c"}
	members := make(map[string]*Member, len(ids))
	for _, id := range []string{"c", "a", "b"} {
		cfg := fastConfig(peersOf[id])
		members[id] = New(cfg, net.Endpoint(id))
		members[id].Start()
	}
	t.Cleanup(func() {
		for _, m := range members {
			m.Stop()
		}
	})
	all := []*Member{members["a"], members["b"], members["c"]}
	eventually(t, 5*time.Second, func() bool { return agreeOn(all, ids) }, "initial formation")

	// Simulate the missed broadcast: throw "c" back to its boot view, as
	// if every KindViewUpdate to it had been dropped.
	mc := members["c"]
	mc.mu.Lock()
	mc.view = View{Seq: 0, Leader: "c", Members: []string{"c"}}
	mc.mu.Unlock()

	eventually(t, 5*time.Second, func() bool { return agreeOn(all, ids) },
		"token relay should recover the member that missed the view update")
}

// TestStaleTokenNudgeReunifiesSplitConfigurations: the pool leader "a"
// (minimum ID, last joiner) is dropped from the view by "b" and "c" (as
// happens when its token handling stalls long enough to be declared
// failed), but "a" still believes it leads the full clique at an older
// sequence. Its tokens are stale to "b"/"c" and silently discarded; "a"
// probes nobody (its view contains everyone); the new leader "b" probes
// nobody either (well-known first member, home list is just itself). The
// stale-token nudge is the only path that reunifies the configurations.
func TestStaleTokenNudgeReunifiesSplitConfigurations(t *testing.T) {
	net := newTestNet(t)
	// Join-through topology in which the union leader is the LAST joiner:
	// "b" is the well-known member, "c" joins through it, then "a".
	peersOf := map[string][]string{"b": nil, "c": {"b"}, "a": {"b", "c"}}
	ids := []string{"a", "b", "c"}
	members := make(map[string]*Member, len(ids))
	for _, id := range []string{"b", "c", "a"} {
		members[id] = New(fastConfig(peersOf[id]), net.Endpoint(id))
		members[id].Start()
	}
	t.Cleanup(func() {
		for _, m := range members {
			m.Stop()
		}
	})
	all := []*Member{members["a"], members["b"], members["c"]}
	eventually(t, 5*time.Second, func() bool { return agreeOn(all, ids) }, "initial formation")

	// Split the configurations: "b" and "c" advance two sequences without
	// "a" (the commit that declared it failed plus one more) and elect "b";
	// "a" stays behind believing it still leads the full membership.
	base := members["a"].View().Seq
	for _, id := range []string{"b", "c"} {
		m := members[id]
		m.mu.Lock()
		m.view = View{Seq: base + 2, Leader: "b", Members: []string{"b", "c"}}
		m.mu.Unlock()
	}
	ma := members["a"]
	ma.mu.Lock()
	ma.view = View{Seq: base, Leader: "a", Members: []string{"a", "b", "c"}}
	ma.mu.Unlock()

	eventually(t, 5*time.Second, func() bool { return agreeOn(all, ids) },
		"stale-token nudge should reunify the split configurations")
}
