package providers

import (
	"bytes"
	"net/netip"
	"testing"
	"time"

	"repro/internal/dnswire"
	"repro/internal/svcb"
	"repro/internal/testrace"
)

// TestHTTPSSetRebuildIsOneAllocation: an ECH rotation rebuilds a domain's
// HTTPS set as its box alone — the parameter list and the hint values ride
// inside it, the alpn value is shared.
func TestHTTPSSetRebuildIsOneAllocation(t *testing.T) {
	if testrace.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	w := buildTestWorld(t, 2000)
	at := time.Date(2023, 7, 21, 12, 0, 0, 0, time.UTC)
	d := findDomain(w, func(d *DomainState) bool {
		return d.Profile == ProfileCFDefault && d.ECH && d.HintV4 && d.HintV6
	})
	if d == nil {
		t.Fatal("world has no Cloudflare default with ECH and both hints")
	}
	list := d.Providers[0].echListFor(d, at)
	if list == nil {
		t.Fatalf("%s publishes no ECH config list at %v", d.Apex, at)
	}
	// Two lists at two addresses: every ask below misses the memo.
	lists := [2][]byte{list, bytes.Clone(list)}
	i := 0
	rebuild := func() {
		d.httpsRRset(d.Apex, at, lists[i%2])
		i++
	}
	rebuild()
	if n := testing.AllocsPerRun(100, rebuild); n != 1 {
		t.Errorf("HTTPS set rebuilt at a new ECH list: %v allocations, want 1", n)
	}
}

// TestHTTPSSetWireMatchesSetters: a set built over its inline storage packs
// to the bytes of the same record built through svcb's public setters.
func TestHTTPSSetWireMatchesSetters(t *testing.T) {
	anycast4, anycast6 := netip.MustParseAddr("104.16.132.229"), netip.MustParseAddr("2606:4700::6810:84e5")
	origin4, origin6 := netip.MustParseAddr("192.0.2.10"), netip.MustParseAddr("2001:db8::10")
	list := []byte{0x00, 0x04, 0xfe, 0x0d, 0x00, 0x00}
	for _, c := range []struct {
		name  string
		d     *DomainState
		preH3 bool
		ech   []byte
		want  func(ps *svcb.Params) error
	}{
		{"cf default, ech, before the h3-29 sunset",
			&DomainState{Profile: ProfileCFDefault, Proxied: true, HintV4: true, HintV6: true, AnycastV4: anycast4, AnycastV6: anycast6},
			true, list, func(ps *svcb.Params) error {
				ps.SetECH(list)
				return setAll(ps.SetALPN([]string{"h2", "h3", "h3-29"}),
					ps.SetIPv6Hints([]netip.Addr{anycast6}), ps.SetIPv4Hints([]netip.Addr{anycast4}))
			}},
		{"cf default, no ech, v4 hint only",
			&DomainState{Profile: ProfileCFDefault, Proxied: true, HintV4: true, AnycastV4: anycast4, AnycastV6: anycast6},
			false, nil, func(ps *svcb.Params) error {
				return setAll(ps.SetIPv4Hints([]netip.Addr{anycast4}), ps.SetALPN([]string{"h2", "h3"}))
			}},
		{"cf custom, v6 hint and ech",
			&DomainState{Profile: ProfileCFCustom, Proxied: true, ALPN: []string{"h2"}, HintV6: true, AnycastV4: anycast4, AnycastV6: anycast6},
			false, list, func(ps *svcb.Params) error {
				ps.SetECH(list)
				return setAll(ps.SetALPN([]string{"h2"}), ps.SetIPv6Hints([]netip.Addr{anycast6}))
			}},
		{"generic, no parameters",
			&DomainState{Profile: ProfileNonCFGeneric, OriginV4: origin4, AnycastV4: origin4},
			false, nil, func(*svcb.Params) error { return nil }},
		{"google",
			&DomainState{Profile: ProfileGoogle, ALPN: []string{"h2"}, HintV4: true, OriginV4: origin4},
			false, nil, func(ps *svcb.Params) error {
				return setAll(ps.SetALPN([]string{"h2"}), ps.SetIPv4Hints([]netip.Addr{origin4}))
			}},
		{"godaddy service",
			&DomainState{Profile: ProfileGoDaddyService, ALPN: []string{"h2", "h3"}, OriginV4: origin4, OriginV6: origin6},
			false, nil, func(ps *svcb.Params) error {
				return setAll(ps.SetIPv6Hints([]netip.Addr{origin6}), ps.SetIPv4Hints([]netip.Addr{origin4}),
					ps.SetALPN([]string{"h2", "h3"}))
			}},
	} {
		c.d.Apex, c.d.TTL = "example.test.", 300
		var ps svcb.Params
		if err := c.want(&ps); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		want := dnswire.RR{Name: c.d.Apex, Type: dnswire.TypeHTTPS, Class: dnswire.ClassINET, TTL: 300,
			Data: &dnswire.SVCBData{Priority: 1, Target: ".", Params: ps}}
		got := c.d.newHTTPSSet(c.d.Apex, c.preH3, c.ech).records()
		if g, w := packedSet(got), packedSet([]dnswire.RR{want}); g != w {
			t.Errorf("%s: set packs to %s, the setters' record to %s", c.name, g, w)
		}
	}
}

// setAll returns the first of errs that is not nil.
func setAll(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
