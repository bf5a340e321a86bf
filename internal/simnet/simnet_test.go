package simnet

import (
	"errors"
	"net/netip"
	"testing"
	"time"

	"repro/internal/dnswire"
)

func TestClock(t *testing.T) {
	start := time.Date(2023, 5, 8, 0, 0, 0, 0, time.UTC)
	c := NewClock(start)
	if !c.Now().Equal(start) {
		t.Error("initial time wrong")
	}
	c.Advance(time.Hour)
	if !c.Now().Equal(start.Add(time.Hour)) {
		t.Error("Advance wrong")
	}
	c.Set(start)
	if !c.Now().Equal(start) {
		t.Error("Set wrong")
	}
}

type echoHandler struct{}

func (echoHandler) HandleDNS(q *dnswire.Message) *dnswire.Message {
	r := q.Reply()
	r.RCode = dnswire.RCodeNoError
	return r
}

func TestQueryDNSRouting(t *testing.T) {
	n := New(NewClock(time.Unix(0, 0)))
	addr := netip.MustParseAddr("10.0.0.1")
	n.RegisterDNS(addr, echoHandler{})

	q := dnswire.NewQuery(1, "x.com", dnswire.TypeA, false)
	resp, err := n.QueryDNS(addr, q)
	if err != nil || resp.ID != 1 {
		t.Fatalf("QueryDNS: %v %v", resp, err)
	}
	if n.QueryCount() != 1 {
		t.Errorf("QueryCount = %d", n.QueryCount())
	}
	// Unknown address.
	if _, err := n.QueryDNS(netip.MustParseAddr("10.0.0.2"), q); !errors.Is(err, ErrNoService) {
		t.Errorf("err = %v", err)
	}
	// Down address.
	n.SetAddrDown(addr, true)
	if _, err := n.QueryDNS(addr, q); !errors.Is(err, ErrUnreachable) {
		t.Errorf("down addr err = %v", err)
	}
	n.SetAddrDown(addr, false)
	if _, err := n.QueryDNS(addr, q); err != nil {
		t.Errorf("recovered addr err = %v", err)
	}
}

func TestServiceRegistry(t *testing.T) {
	n := New(NewClock(time.Unix(0, 0)))
	ap := netip.MustParseAddrPort("10.0.0.1:443")
	n.RegisterService(ap, "svc")
	svc, err := n.Service(ap)
	if err != nil || svc != "svc" {
		t.Fatalf("Service: %v %v", svc, err)
	}
	// Port-level failure injection.
	n.SetPortDown(ap, true)
	if _, err := n.Service(ap); !errors.Is(err, ErrUnreachable) {
		t.Errorf("down port err = %v", err)
	}
	n.SetPortDown(ap, false)
	// Address-level failure injection affects services too.
	n.SetAddrDown(ap.Addr(), true)
	if _, err := n.Service(ap); !errors.Is(err, ErrUnreachable) {
		t.Errorf("down addr err = %v", err)
	}
	n.SetAddrDown(ap.Addr(), false)
	// Unknown port refuses.
	if _, err := n.Service(netip.MustParseAddrPort("10.0.0.1:8443")); !errors.Is(err, ErrRefused) {
		t.Errorf("unknown port err = %v", err)
	}
	n.UnregisterService(ap)
	if _, err := n.Service(ap); !errors.Is(err, ErrRefused) {
		t.Errorf("unregistered err = %v", err)
	}
}

func TestRootServers(t *testing.T) {
	n := New(NewClock(time.Unix(0, 0)))
	roots := []netip.Addr{netip.MustParseAddr("198.41.0.4")}
	n.SetRootServers(roots)
	got := n.RootServers()
	if len(got) != 1 || got[0] != roots[0] {
		t.Errorf("RootServers = %v", got)
	}
	// The list is the caller's copy of SetRootServers' input, and a list
	// handed out is read-only: capacity-clipped, and left as it was when
	// SetRootServers replaces the network's.
	roots[0] = netip.MustParseAddr("1.1.1.1")
	if n.RootServers()[0] != got[0] || got[0] == roots[0] {
		t.Error("RootServers aliases SetRootServers' input")
	}
	if cap(got) != len(got) {
		t.Errorf("RootServers cap = %d, want %d", cap(got), len(got))
	}
	n.SetRootServers([]netip.Addr{roots[0], roots[0]})
	if len(got) != 1 || got[0] != netip.MustParseAddr("198.41.0.4") || len(n.RootServers()) != 2 {
		t.Errorf("after SetRootServers: held %v, now %v", got, n.RootServers())
	}
}

func TestAllocatorV4(t *testing.T) {
	a := NewAllocator()
	x1 := a.AllocV4("OrgA")
	x2 := a.AllocV4("OrgA")
	y1 := a.AllocV4("OrgB")
	if x1 == x2 {
		t.Error("duplicate allocation")
	}
	if !x1.Is4() || !y1.Is4() {
		t.Error("non-IPv4 allocation")
	}
	// Same org shares a /16.
	a16 := x1.As4()
	b16 := x2.As4()
	if a16[0] != b16[0] || a16[1] != b16[1] {
		t.Error("same org allocated across blocks")
	}
	// Different orgs get different blocks.
	c16 := y1.As4()
	if a16[0] == c16[0] && a16[1] == c16[1] {
		t.Error("different orgs share a block")
	}
	if org, ok := a.Owner(x1); !ok || org != "OrgA" {
		t.Errorf("Owner = %q, %v", org, ok)
	}
}

func TestAllocatorV6AndBYOIP(t *testing.T) {
	a := NewAllocator()
	v6 := a.AllocV6("OrgA")
	if !v6.Is6() || v6.Is4In6() {
		t.Errorf("AllocV6 = %v", v6)
	}
	// BYOIP: ownership override.
	a.SetOwner(v6, "CustomerCo")
	if org, _ := a.Owner(v6); org != "CustomerCo" {
		t.Errorf("override failed: %q", org)
	}
}

func TestAllocatorUniqueness(t *testing.T) {
	a := NewAllocator()
	seen := map[netip.Addr]bool{}
	for i := 0; i < 1000; i++ {
		addr := a.AllocV4("Org")
		if seen[addr] {
			t.Fatalf("duplicate address %v at %d", addr, i)
		}
		seen[addr] = true
	}
}

// timedHandler records the time it was queried at, to verify per-view clock
// dispatch through DNSHandlerAt.
type timedHandler struct{ seen time.Time }

func (h *timedHandler) HandleDNS(q *dnswire.Message) *dnswire.Message {
	return h.HandleDNSAt(q, time.Time{})
}

func (h *timedHandler) HandleDNSAt(q *dnswire.Message, now time.Time) *dnswire.Message {
	h.seen = now
	return q.Reply()
}

func TestNetworkViewClockAndOverrides(t *testing.T) {
	base := New(NewClock(time.Date(2023, 5, 8, 12, 0, 0, 0, time.UTC)))
	addr := netip.MustParseAddr("10.0.0.1")
	h := &timedHandler{}
	base.RegisterDNS(addr, h)

	dayTime := time.Date(2023, 6, 1, 12, 0, 0, 0, time.UTC)
	view := base.WithClock(NewClock(dayTime))

	// A DNSHandlerAt registered in the shared registry answers at the
	// view's clock, not the base clock.
	q := dnswire.NewQuery(1, "x.com", dnswire.TypeA, false)
	if _, err := view.QueryDNS(addr, q); err != nil {
		t.Fatal(err)
	}
	if !h.seen.Equal(dayTime) {
		t.Errorf("handler saw %v, want view time %v", h.seen, dayTime)
	}
	if _, err := base.QueryDNS(addr, q); err != nil {
		t.Fatal(err)
	}
	if !h.seen.Equal(base.Clock.Now()) {
		t.Errorf("handler saw %v, want base time %v", h.seen, base.Clock.Now())
	}

	// Query counts are shared between base and views.
	if base.QueryCount() != 2 || view.QueryCount() != 2 {
		t.Errorf("query counts: base=%d view=%d, want 2", base.QueryCount(), view.QueryCount())
	}

	// A view-local DNS override shadows the shared handler without
	// leaking into the base network or sibling views.
	override := &timedHandler{}
	view.OverrideDNS(addr, override)
	if _, err := view.QueryDNS(addr, q); err != nil {
		t.Fatal(err)
	}
	if !override.seen.Equal(dayTime) {
		t.Error("override not consulted on view")
	}
	sibling := base.WithClock(NewClock(dayTime.Add(24 * time.Hour)))
	if _, err := sibling.QueryDNS(addr, q); err != nil {
		t.Fatal(err)
	}
	if !h.seen.Equal(dayTime.Add(24 * time.Hour)) {
		t.Error("sibling view leaked the other view's override")
	}

	// Failure injection is shared state: a down address fails through
	// views too, even with an override installed.
	base.SetAddrDown(addr, true)
	if _, err := view.QueryDNS(addr, q); !errors.Is(err, ErrUnreachable) {
		t.Errorf("down addr via view err = %v", err)
	}
	base.SetAddrDown(addr, false)
}

func TestNetworkViewServiceOverride(t *testing.T) {
	base := New(NewClock(time.Unix(0, 0)))
	ap := netip.AddrPortFrom(netip.MustParseAddr("10.0.0.9"), 443)
	base.RegisterService(ap, "shared")
	view := base.WithClock(NewClock(time.Unix(86400, 0)))
	view.OverrideService(ap, "view-local")

	if svc, err := view.Service(ap); err != nil || svc != "view-local" {
		t.Errorf("view service = %v, %v", svc, err)
	}
	if svc, err := base.Service(ap); err != nil || svc != "shared" {
		t.Errorf("base service = %v, %v", svc, err)
	}
	// Injection still applies to overridden services.
	base.SetPortDown(ap, true)
	if _, err := view.Service(ap); !errors.Is(err, ErrUnreachable) {
		t.Errorf("down port via view err = %v", err)
	}
}

func TestQueryCountConcurrent(t *testing.T) {
	n := New(NewClock(time.Unix(0, 0)))
	addr := netip.MustParseAddr("10.0.0.1")
	n.RegisterDNS(addr, echoHandler{})
	q := dnswire.NewQuery(1, "x.com", dnswire.TypeA, false)
	done := make(chan bool)
	const workers, each = 8, 200
	for w := 0; w < workers; w++ {
		go func() {
			for i := 0; i < each; i++ {
				if _, err := n.QueryDNS(addr, q); err != nil {
					t.Error(err)
					break
				}
			}
			done <- true
		}()
	}
	for w := 0; w < workers; w++ {
		<-done
	}
	if n.QueryCount() != workers*each {
		t.Errorf("QueryCount = %d, want %d", n.QueryCount(), workers*each)
	}
}
