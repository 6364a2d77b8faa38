package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"everyware/internal/gossip"
	"everyware/internal/logsvc"
	"everyware/internal/pstate"
	"everyware/internal/ramsey"
	"everyware/internal/scale"
	"everyware/internal/sched"
	"everyware/internal/telemetry"
	"everyware/internal/wire"
)

// countingTransport is TCP loopback that counts the bytes every
// connection writes, so wire.bytes_per_op covers all traffic of the run:
// the generator's, the daemons' and the background rounds'.
type countingTransport struct{ written atomic.Int64 }

func (t *countingTransport) Dial(addr string, timeout time.Duration) (net.Conn, error) {
	c, err := wire.TCP.Dial(addr, timeout)
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: c, n: &t.written}, nil
}

func (t *countingTransport) Listen(addr string) (net.Listener, error) {
	l, err := wire.TCP.Listen(addr)
	if err != nil {
		return nil, err
	}
	return countingListener{Listener: l, n: &t.written}, nil
}

type countingListener struct {
	net.Listener
	n *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: c, n: l.n}, nil
}

type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// env is what every fleet of one run shares: the transport, the span
// recorder (nil when untraced) and the directory pstate data lives in.
type env struct {
	tr      *countingTransport
	rec     *recorder
	dataDir string
	// origin is the clock every op and span time is an offset from.
	origin time.Time
}

func (e *env) now() time.Duration { return time.Since(e.origin) }

// tracer returns the tracer for one traced component, or a nil interface
// when the run is untraced (a typed nil would switch tracing on).
func (e *env) tracer(service string) wire.Tracer {
	if e.rec == nil {
		return nil
	}
	return e.rec.tracer(service)
}

// newClient opens the generator's shared wire.Client: one connection per
// daemon for the whole workload.
func (e *env) newClient(reg *telemetry.Registry) *wire.Client {
	c := wire.NewClient(2 * time.Second)
	c.Transport = e.tr
	c.Metrics = reg
	if t := e.tracer("client"); t != nil {
		c.Tracer = t
	}
	return c
}

// syncInterval is the Gossip sync and heartbeat period, the default of a
// local core.Deployment.
const syncInterval = 200 * time.Millisecond

// fleet is one set of running daemons, built from their public
// constructors the way core.StartDeployment builds them.
type fleet struct {
	env     *env
	client  *wire.Client
	metrics *telemetry.Registry // the generator's own client registry

	logs    *logsvc.Server
	gossips []*gossip.Server
	scheds  []*sched.Server
	pstates []*pstate.Server
	// services are component-side wire services the fleet started (the
	// ring publisher and subscriber, gossip components).
	services []*wire.Service

	router *scale.Router
	ringCh chan struct{}
}

func newFleet(e *env) *fleet {
	reg := telemetry.NewRegistry()
	return &fleet{env: e, metrics: reg, client: e.newClient(reg), ringCh: make(chan struct{}, 1)}
}

// close stops every daemon and connection the fleet opened and waits
// for their goroutines.
func (f *fleet) close() {
	f.client.Close()
	for _, s := range f.services {
		s.Close()
	}
	for _, s := range f.scheds {
		s.Close()
	}
	for _, p := range f.pstates {
		p.Close()
	}
	for _, g := range f.gossips {
		g.Close()
	}
	if f.logs != nil {
		f.logs.Close()
	}
}

func (f *fleet) startLog() error {
	ls, err := logsvc.NewServer(logsvc.ServerConfig{
		ListenAddr: "127.0.0.1:0",
		Transport:  f.env.tr,
		Tracer:     f.env.tracer("logsvc"),
	})
	if err != nil {
		return err
	}
	if _, err := ls.Start(); err != nil {
		return err
	}
	f.logs = ls
	return nil
}

// startGossips starts n Gossips; later members bootstrap off the first.
func (f *fleet) startGossips(n int) error {
	var addrs []string
	for i := 0; i < n; i++ {
		g := gossip.NewServer(gossip.ServerConfig{
			ListenAddr:   "127.0.0.1:0",
			WellKnown:    append([]string(nil), addrs...),
			SyncInterval: syncInterval,
			Heartbeat:    syncInterval,
			Transport:    f.env.tr,
			Tracer:       f.env.tracer(fmt.Sprintf("gossip%d", i)),
		})
		addr, err := g.Start()
		if err != nil {
			return fmt.Errorf("gossip %d: %w", i, err)
		}
		f.gossips = append(f.gossips, g)
		addrs = append(addrs, addr)
	}
	return nil
}

// waitClique waits until every Gossip sees the whole pool.
func (f *fleet) waitClique(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		formed := true
		for _, g := range f.gossips {
			if len(g.PoolView().Members) != len(f.gossips) {
				formed = false
				break
			}
		}
		if formed {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("gossip clique did not form")
		}
		time.Sleep(time.Millisecond)
	}
}

// component starts a component-side wire service with a gossip.Agent.
func (f *fleet) component(name string) (*wire.Service, *gossip.Agent, error) {
	svc := wire.NewService(wire.ServiceConfig{
		Name:       name,
		ListenAddr: "127.0.0.1:0",
		Transport:  f.env.tr,
		Silent:     true,
		Tracer:     f.env.tracer(name),
	})
	addr, err := svc.Start()
	if err != nil {
		return nil, nil, err
	}
	f.services = append(f.services, svc)
	return svc, gossip.NewAgent(svc.Server(), addr), nil
}

// startScheds starts n scheduling servers forwarding reports to the
// logging server, then publishes their ring through Gossip and subscribes
// the generator's router to it, as clients learn the shard layout.
func (f *fleet) startScheds(n int, steps int64, heuristics []ramsey.Heuristic) error {
	var addrs []string
	for i := 0; i < n; i++ {
		s := sched.NewServer(sched.ServerConfig{
			ListenAddr:   "127.0.0.1:0",
			N:            problemN,
			K:            problemK,
			DefaultSteps: steps,
			Heuristics:   heuristics,
			LogAddr:      f.logs.Addr(),
			Transport:    f.env.tr,
			Tracer:       f.env.tracer(fmt.Sprintf("sched%d", i)),
		})
		addr, err := s.Start()
		if err != nil {
			return fmt.Errorf("scheduler %d: %w", i, err)
		}
		f.scheds = append(f.scheds, s)
		addrs = append(addrs, addr)
	}
	gaddr := f.gossips[0].Addr()
	_, pub, err := f.component("roster")
	if err != nil {
		return err
	}
	if err := pub.Track(scale.RingKey, gossip.CmpCounter, nil); err != nil {
		return err
	}
	if err := pub.Register(f.client, gaddr, scale.RingKey, gossip.CmpCounter, 2*time.Second); err != nil {
		return fmt.Errorf("ring registration: %w", err)
	}
	_, sub, err := f.component("subscriber")
	if err != nil {
		return err
	}
	f.router = scale.NewRouter(nil, nil)
	err = sub.Track(scale.RingKey, gossip.CmpCounter, func(st gossip.Stamped) {
		ring, err := scale.DecodeRing(st.Data)
		if err != nil {
			return
		}
		if f.router.SetRing(ring) {
			select {
			case f.ringCh <- struct{}{}:
			default:
			}
		}
	})
	if err != nil {
		return err
	}
	if err := sub.Register(f.client, gaddr, scale.RingKey, gossip.CmpCounter, 2*time.Second); err != nil {
		return fmt.Errorf("ring subscription: %w", err)
	}
	pub.Set(scale.RingKey, scale.EncodeRing(scale.NewRing(addrs, 0)))
	return nil
}

// waitRing waits until the published ring reached the generator.
func (f *fleet) waitRing(timeout time.Duration) error {
	select {
	case <-f.ringCh:
		return nil
	case <-time.After(timeout):
		return errors.New("scheduler ring was not delivered through gossip")
	}
}

// startPStates starts n peered persistent state managers, each in its
// own data directory.
func (f *fleet) startPStates(n int, tag string) error {
	var addrs []string
	for i := 0; i < n; i++ {
		dir := filepath.Join(f.env.dataDir, fmt.Sprintf("%s-pstate%d", tag, i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		ps, err := pstate.NewServer(pstate.ServerConfig{
			ListenAddr: "127.0.0.1:0",
			Dir:        dir,
			Transport:  f.env.tr,
			Tracer:     f.env.tracer(fmt.Sprintf("pstate%d", i)),
		})
		if err != nil {
			return err
		}
		addr, err := ps.Start()
		if err != nil {
			return err
		}
		f.pstates = append(f.pstates, ps)
		addrs = append(addrs, addr)
	}
	for _, ps := range f.pstates {
		var peers []string
		for _, a := range addrs {
			if a != ps.Addr() {
				peers = append(peers, a)
			}
		}
		ps.SetPeers(peers)
	}
	return nil
}

func (f *fleet) pstateAddrs() []string {
	out := make([]string, len(f.pstates))
	for i, p := range f.pstates {
		out[i] = p.Addr()
	}
	return out
}

// registries lists every public telemetry registry of the fleet: daemons,
// component services and the generator's client.
func (f *fleet) registries() []*telemetry.Registry {
	regs := []*telemetry.Registry{f.metrics}
	for _, g := range f.gossips {
		regs = append(regs, g.Metrics())
	}
	for _, s := range f.scheds {
		regs = append(regs, s.Metrics())
	}
	for _, p := range f.pstates {
		regs = append(regs, p.Metrics())
	}
	for _, s := range f.services {
		regs = append(regs, s.Metrics())
	}
	return regs
}
