// Package simnet provides the simulated Internet substrate the measurement
// framework runs on: a virtual clock, an IPv4/IPv6 address allocator with
// per-organisation blocks (feeding the WHOIS model), and a network that
// routes DNS queries and TLS connections to registered virtual hosts, with
// failure injection (unreachable addresses and ports).
//
// The paper's experiments ran against the live Internet; simnet substitutes
// a deterministic, seedable world that speaks the same wire formats, so
// every parsing, caching, validation, and failover code path is exercised
// for real.
package simnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dnswire"
)

// Clock is a virtual clock shared by all components of a simulation.
type Clock struct {
	mu  sync.Mutex
	now time.Time
}

// NewClock creates a clock starting at start.
func NewClock(start time.Time) *Clock {
	return &Clock{now: start}
}

// Now returns the current virtual time.
func (c *Clock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves the clock forward by d and returns the new time.
func (c *Clock) Advance(d time.Duration) time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
	return c.now
}

// Set jumps the clock to t.
func (c *Clock) Set(t time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = t
}

// Errors returned by network operations.
var (
	ErrUnreachable = errors.New("simnet: host unreachable")
	ErrNoService   = errors.New("simnet: no service at address")
	ErrRefused     = errors.New("simnet: connection refused")
)

// DNSHandler answers DNS queries. Both authoritative servers and recursive
// resolvers implement it.
//
// The message a handler returns belongs to its caller: a handler builds one
// per call (q.Reply()) and keeps no reference to it, and a wrapper that
// passes an inner handler's answer on passes ownership. The caller knows
// when the answer is dead and may then Release it; the records in its
// sections stay the handler's, shared and read-only. Nil is a hard failure.
type DNSHandler interface {
	HandleDNS(q *dnswire.Message) *dnswire.Message
}

// DNSHandlerAt is implemented by handlers whose answers depend on the
// virtual time of the querying network view (authoritative servers whose
// zone content follows day/hour schedules). When a handler implements it,
// QueryDNS passes the view's clock reading so one shared server instance
// can answer for several concurrently-scanned days at once.
type DNSHandlerAt interface {
	HandleDNSAt(q *dnswire.Message, now time.Time) *dnswire.Message
}

// netState is the registry shared by a base network and all of its views:
// handlers, services, failure injection, and the global query counter.
type netState struct {
	mu        sync.RWMutex
	dns       map[netip.Addr]DNSHandler
	services  map[netip.AddrPort]any
	downAddrs map[netip.Addr]bool
	downPorts map[netip.AddrPort]bool
	roots     []netip.Addr

	// queryCount is atomic, not mutex-guarded: it is bumped on every
	// routed query, and taking the write lock just for the bump was the
	// dominant cross-day contention point in pipelined campaigns.
	queryCount atomic.Uint64
}

// Network is the simulated Internet: a registry of DNS servers by address
// and of arbitrary services (e.g. TLS endpoints) by address:port, plus
// reachability failure injection. A Network is either a base network or a
// view of one (see WithClock): views share the registry and counters but
// carry their own Clock and per-view handler overrides, which is what lets
// one world serve many simulated days concurrently.
type Network struct {
	Clock *Clock

	state *netState

	// Per-view overrides, consulted before the shared registry. They are
	// populated while a view is being wired (single-goroutine) and only
	// read afterwards, so they are deliberately lock-free.
	dnsOverrides map[netip.Addr]DNSHandler
	svcOverrides map[netip.AddrPort]any
}

// New creates an empty network with the given clock.
func New(clock *Clock) *Network {
	return &Network{
		Clock: clock,
		state: &netState{
			dns:       map[netip.Addr]DNSHandler{},
			services:  map[netip.AddrPort]any{},
			downAddrs: map[netip.Addr]bool{},
			downPorts: map[netip.AddrPort]bool{},
		},
	}
}

// WithClock returns a view of the network that shares the registry,
// failure-injection state, and query counter, but reads time from the given
// clock and starts with no overrides. Mutating registrations through a view
// (RegisterDNS etc.) writes the shared registry; use OverrideDNS /
// OverrideService for view-local wiring.
func (n *Network) WithClock(clock *Clock) *Network {
	return &Network{Clock: clock, state: n.state}
}

// OverrideDNS installs a view-local DNS handler at addr, shadowing any
// shared registration. It must be called while the view is being wired,
// before the view serves queries concurrently.
func (n *Network) OverrideDNS(addr netip.Addr, h DNSHandler) {
	if n.dnsOverrides == nil {
		n.dnsOverrides = map[netip.Addr]DNSHandler{}
	}
	n.dnsOverrides[addr] = h
}

// OverrideService installs a view-local service at ap, shadowing any shared
// registration. Same wiring-time constraint as OverrideDNS.
func (n *Network) OverrideService(ap netip.AddrPort, svc any) {
	if n.svcOverrides == nil {
		n.svcOverrides = map[netip.AddrPort]any{}
	}
	n.svcOverrides[ap] = svc
}

// RegisterDNS attaches a DNS handler at addr.
func (n *Network) RegisterDNS(addr netip.Addr, h DNSHandler) {
	n.state.mu.Lock()
	defer n.state.mu.Unlock()
	n.state.dns[addr] = h
}

// SetRootServers records a copy of the root name server addresses for
// resolvers. It replaces the list rather than writing into it, so a list
// RootServers handed out keeps its addresses.
func (n *Network) SetRootServers(addrs []netip.Addr) {
	n.state.mu.Lock()
	defer n.state.mu.Unlock()
	n.state.roots = append([]netip.Addr(nil), addrs...)
}

// RootServers returns the configured root server addresses: the network's
// own list, read-only, capacity-clipped so an append copies.
func (n *Network) RootServers() []netip.Addr {
	n.state.mu.RLock()
	defer n.state.mu.RUnlock()
	roots := n.state.roots
	return roots[:len(roots):len(roots)]
}

// QueryDNS sends a DNS query to the server at addr and returns its response,
// which is the caller's to Release once read (see DNSHandler).
func (n *Network) QueryDNS(addr netip.Addr, q *dnswire.Message) (*dnswire.Message, error) {
	n.state.mu.RLock()
	h, ok := n.state.dns[addr]
	down := n.state.downAddrs[addr]
	n.state.mu.RUnlock()
	if down {
		return nil, fmt.Errorf("querying %v: %w", addr, ErrUnreachable)
	}
	if over, hit := n.dnsOverrides[addr]; hit {
		h, ok = over, true
	}
	if !ok {
		return nil, fmt.Errorf("querying %v: %w", addr, ErrNoService)
	}
	n.state.queryCount.Add(1)
	var resp *dnswire.Message
	if ha, timed := h.(DNSHandlerAt); timed {
		resp = ha.HandleDNSAt(q, n.Clock.Now())
	} else {
		resp = h.HandleDNS(q)
	}
	if resp == nil {
		return nil, fmt.Errorf("querying %v: %w", addr, ErrRefused)
	}
	return resp, nil
}

// QueryCount returns the total number of DNS queries routed so far (shared
// across all views); the ethics-minded rate accounting in the scanner uses
// it.
func (n *Network) QueryCount() uint64 {
	return n.state.queryCount.Load()
}

// RegisterService attaches an arbitrary service object (e.g. a TLS endpoint)
// at addr:port.
func (n *Network) RegisterService(ap netip.AddrPort, svc any) {
	n.state.mu.Lock()
	defer n.state.mu.Unlock()
	n.state.services[ap] = svc
}

// UnregisterService removes the service at addr:port.
func (n *Network) UnregisterService(ap netip.AddrPort) {
	n.state.mu.Lock()
	defer n.state.mu.Unlock()
	delete(n.state.services, ap)
}

// Service returns the service registered at addr:port. It honours failure
// injection: a down address or port returns ErrUnreachable.
func (n *Network) Service(ap netip.AddrPort) (any, error) {
	n.state.mu.RLock()
	down := n.state.downAddrs[ap.Addr()] || n.state.downPorts[ap]
	svc, ok := n.state.services[ap]
	n.state.mu.RUnlock()
	if down {
		return nil, fmt.Errorf("connecting to %v: %w", ap, ErrUnreachable)
	}
	if over, hit := n.svcOverrides[ap]; hit {
		return over, nil
	}
	if !ok {
		return nil, fmt.Errorf("connecting to %v: %w", ap, ErrRefused)
	}
	return svc, nil
}

// SetAddrDown marks an entire address (un)reachable.
func (n *Network) SetAddrDown(addr netip.Addr, down bool) {
	n.state.mu.Lock()
	defer n.state.mu.Unlock()
	if down {
		n.state.downAddrs[addr] = true
	} else {
		delete(n.state.downAddrs, addr)
	}
}

// SetPortDown marks one address:port (un)reachable.
func (n *Network) SetPortDown(ap netip.AddrPort, down bool) {
	n.state.mu.Lock()
	defer n.state.mu.Unlock()
	if down {
		n.state.downPorts[ap] = true
	} else {
		delete(n.state.downPorts, ap)
	}
}

// Allocator hands out IP addresses from per-organisation blocks, recording
// ownership for the WHOIS model. IPv4 blocks are /16s carved sequentially
// from 100.64.0.0/10-style space; IPv6 blocks are /32-ish prefixes.
type Allocator struct {
	mu       sync.Mutex
	nextV4   uint32            // next /16 block index
	orgV4    map[string]uint32 // org → block base (as uint32 address)
	orgNext4 map[string]uint32 // org → next offset within block
	nextV6   uint16
	orgV6    map[string]uint16
	orgNext6 map[string]uint64
	owner    map[netip.Addr]string
}

// NewAllocator creates an empty allocator.
func NewAllocator() *Allocator {
	return &Allocator{
		orgV4:    map[string]uint32{},
		orgNext4: map[string]uint32{},
		orgV6:    map[string]uint16{},
		orgNext6: map[string]uint64{},
		owner:    map[netip.Addr]string{},
	}
}

// AllocV4 returns the next IPv4 address owned by org.
func (a *Allocator) AllocV4(org string) netip.Addr {
	a.mu.Lock()
	defer a.mu.Unlock()
	base, ok := a.orgV4[org]
	if !ok {
		// Carve the next /16 out of 10.0.0.0/8 then 100.64.0.0/10 space;
		// addresses are synthetic so only uniqueness matters.
		base = 0x0a000000 + a.nextV4<<16
		a.nextV4++
		a.orgV4[org] = base
		a.orgNext4[org] = 1
	}
	off := a.orgNext4[org]
	a.orgNext4[org]++
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], base+off)
	addr := netip.AddrFrom4(b)
	a.owner[addr] = org
	return addr
}

// AllocV6 returns the next IPv6 address owned by org.
func (a *Allocator) AllocV6(org string) netip.Addr {
	a.mu.Lock()
	defer a.mu.Unlock()
	prefix, ok := a.orgV6[org]
	if !ok {
		prefix = a.nextV6
		a.nextV6++
		a.orgV6[org] = prefix
		a.orgNext6[org] = 1
	}
	off := a.orgNext6[org]
	a.orgNext6[org]++
	var b [16]byte
	b[0], b[1] = 0x20, 0x01 // 2001::/16-style documentation space
	binary.BigEndian.PutUint16(b[2:4], prefix)
	binary.BigEndian.PutUint64(b[8:16], off)
	addr := netip.AddrFrom16(b)
	a.owner[addr] = org
	return addr
}

// Owner returns the organisation that owns addr, if allocated.
func (a *Allocator) Owner(addr netip.Addr) (string, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	org, ok := a.owner[addr]
	return org, ok
}

// SetOwner overrides ownership of an address (models BYOIP, where WHOIS
// shows the original owner rather than the operating provider).
func (a *Allocator) SetOwner(addr netip.Addr, org string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.owner[addr] = org
}
