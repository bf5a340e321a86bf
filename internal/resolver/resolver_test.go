package resolver

import (
	"net/netip"
	"testing"
	"time"

	"repro/internal/authserver"
	"repro/internal/dnswire"
	"repro/internal/simnet"
	"repro/internal/zone"
)

// testWorld wires a three-level signed hierarchy into a simnet:
// . → com. → example.com., each on its own authoritative server.
type testWorld struct {
	net      *simnet.Network
	clock    *simnet.Clock
	resolver *Resolver
	exZone   *zone.Zone
	rootZone *zone.Zone
	comZone  *zone.Zone
	exAddr   netip.Addr
	exSrv    *authserver.Server
	// auth is every authoritative server by address: root, com., example.com.
	auth map[netip.Addr]simnet.DNSHandler
}

func aRR(name, ip string, ttl uint32) dnswire.RR {
	return dnswire.RR{Name: name, Type: dnswire.TypeA, Class: dnswire.ClassINET, TTL: ttl,
		Data: &dnswire.AData{Addr: netip.MustParseAddr(ip)}}
}

func nsRR(zone, host string) dnswire.RR {
	return dnswire.RR{Name: zone, Type: dnswire.TypeNS, Class: dnswire.ClassINET, TTL: 3600,
		Data: &dnswire.NSData{Host: host}}
}

func buildWorld(t testing.TB, sign bool, uploadDS bool) *testWorld {
	t.Helper()
	clock := simnet.NewClock(time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC))
	n := simnet.New(clock)

	rootAddr := netip.MustParseAddr("198.41.0.4")
	comAddr := netip.MustParseAddr("192.5.6.30")
	exAddr := netip.MustParseAddr("10.1.0.53")

	rootZone := zone.New(".")
	rootZone.SetSOA("a.root-servers.net.", "nstld.verisign-grs.com.", 1, 300)
	rootZone.Add(nsRR(".", "a.root-servers.net."))
	rootZone.Add(aRR("a.root-servers.net.", rootAddr.String(), 3600))
	rootZone.Add(nsRR("com.", "a.gtld-servers.net."))
	rootZone.Add(aRR("a.gtld-servers.net.", comAddr.String(), 3600))

	comZone := zone.New("com.")
	comZone.SetSOA("a.gtld-servers.net.", "nstld.verisign-grs.com.", 1, 300)
	comZone.Add(nsRR("com.", "a.gtld-servers.net."))
	comZone.Add(nsRR("example.com.", "ns1.example.com."))
	comZone.Add(aRR("ns1.example.com.", exAddr.String(), 3600))

	exZone := zone.New("example.com.")
	exZone.SetSOA("ns1.example.com.", "hostmaster.example.com.", 1, 60)
	exZone.Add(nsRR("example.com.", "ns1.example.com."))
	exZone.Add(aRR("ns1.example.com.", exAddr.String(), 3600))
	exZone.Add(aRR("www.example.com.", "10.1.0.80", 60))
	exZone.Add(dnswire.RR{Name: "example.com.", Type: dnswire.TypeHTTPS, Class: dnswire.ClassINET,
		TTL: 60, Data: &dnswire.SVCBData{Priority: 1, Target: "."}})
	exZone.Add(dnswire.RR{Name: "alias.example.com.", Type: dnswire.TypeCNAME,
		Class: dnswire.ClassINET, TTL: 60, Data: &dnswire.CNAMEData{Target: "www.example.com."}})

	inception := clock.Now().Add(-time.Hour)
	expiration := clock.Now().Add(90 * 24 * time.Hour)
	if sign {
		if err := exZone.Sign(7, inception, expiration); err != nil {
			t.Fatal(err)
		}
		if uploadDS {
			ds, err := exZone.DS()
			if err != nil {
				t.Fatal(err)
			}
			comZone.Add(ds)
		}
		if err := comZone.Sign(7, inception, expiration); err != nil {
			t.Fatal(err)
		}
		comDS, err := comZone.DS()
		if err != nil {
			t.Fatal(err)
		}
		rootZone.Add(comDS)
		if err := rootZone.Sign(7, inception, expiration); err != nil {
			t.Fatal(err)
		}
	}

	var exSrv *authserver.Server
	auth := map[netip.Addr]simnet.DNSHandler{}
	for _, hz := range []struct {
		addr netip.Addr
		z    *zone.Zone
	}{{rootAddr, rootZone}, {comAddr, comZone}, {exAddr, exZone}} {
		exSrv = authserver.New()
		exSrv.AddZone(hz.z)
		n.RegisterDNS(hz.addr, exSrv)
		auth[hz.addr] = exSrv
	}
	n.SetRootServers([]netip.Addr{rootAddr})

	r := New(n)
	if sign {
		r.Validate = true
		rootKeys, _, _ := rootZone.Lookup(".", dnswire.TypeDNSKEY)
		r.Anchor = rootKeys
	}
	return &testWorld{net: n, clock: clock, resolver: r,
		exZone: exZone, rootZone: rootZone, comZone: comZone, exAddr: exAddr, exSrv: exSrv, auth: auth}
}

func TestResolveA(t *testing.T) {
	w := buildWorld(t, false, false)
	res, err := w.resolver.Resolve("www.example.com.", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if res.RCode != dnswire.RCodeNoError || len(res.Answer) != 1 {
		t.Fatalf("res = %+v", res)
	}
	if res.Answer[0].Data.(*dnswire.AData).Addr.String() != "10.1.0.80" {
		t.Error("wrong address")
	}
}

func TestResolveHTTPS(t *testing.T) {
	w := buildWorld(t, false, false)
	res, err := w.resolver.Resolve("example.com.", dnswire.TypeHTTPS)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answer) != 1 || res.Answer[0].Type != dnswire.TypeHTTPS {
		t.Fatalf("res = %+v", res)
	}
}

func TestResolveNXDomain(t *testing.T) {
	w := buildWorld(t, false, false)
	res, err := w.resolver.Resolve("missing.example.com.", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if res.RCode != dnswire.RCodeNXDomain {
		t.Errorf("rcode = %v", res.RCode)
	}
}

func TestResolveCNAMEChase(t *testing.T) {
	w := buildWorld(t, false, false)
	res, err := w.resolver.Resolve("alias.example.com.", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	var hasCNAME, hasA bool
	for _, rr := range res.Answer {
		switch rr.Type {
		case dnswire.TypeCNAME:
			hasCNAME = true
		case dnswire.TypeA:
			hasA = true
		}
	}
	if !hasCNAME || !hasA {
		t.Errorf("chase incomplete: %+v", res.Answer)
	}
}

func TestResolveCacheServesStale(t *testing.T) {
	w := buildWorld(t, false, false)
	res1, err := w.resolver.Resolve("www.example.com.", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	// Change authoritative data.
	w.exZone.RemoveRRset("www.example.com.", dnswire.TypeA)
	w.exZone.Add(aRR("www.example.com.", "10.9.9.9", 60))
	// Within TTL the cache must serve the old answer.
	w.clock.Advance(30 * time.Second)
	res2, err := w.resolver.Resolve("www.example.com.", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Answer[0].Data.(*dnswire.AData).Addr != res1.Answer[0].Data.(*dnswire.AData).Addr {
		t.Error("cache did not serve stored answer within TTL")
	}
	// After TTL expiry the new answer appears.
	w.clock.Advance(60 * time.Second)
	res3, err := w.resolver.Resolve("www.example.com.", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if res3.Answer[0].Data.(*dnswire.AData).Addr.String() != "10.9.9.9" {
		t.Errorf("cache not refreshed after TTL: %v", res3.Answer[0])
	}
}

// TestCacheExpiryOnVirtualClock pins the cache lifecycle to virtual time:
// within the TTL no upstream traffic happens, live-entry accounting drops
// as entries pass their expiry, and the first post-expiry query goes back
// to the authoritative servers.
func TestCacheExpiryOnVirtualClock(t *testing.T) {
	w := buildWorld(t, false, false)
	if _, err := w.resolver.Resolve("www.example.com.", dnswire.TypeA); err != nil {
		t.Fatal(err)
	}
	if w.resolver.cacheLen() == 0 {
		t.Fatal("nothing cached after a resolution")
	}
	baseline := w.net.QueryCount()

	// Within the 60s record TTL: answered purely from cache.
	w.clock.Advance(30 * time.Second)
	if _, err := w.resolver.Resolve("www.example.com.", dnswire.TypeA); err != nil {
		t.Fatal(err)
	}
	if got := w.net.QueryCount(); got != baseline {
		t.Errorf("cached resolution sent %d upstream queries", got-baseline)
	}

	// Advance beyond every TTL in the hierarchy (NS records carry 3600s):
	// the live-entry count must fall to zero without any eviction pass —
	// expiry is purely a virtual-clock comparison.
	w.clock.Advance(2 * time.Hour)
	if got := w.resolver.cacheLen(); got != 0 {
		t.Errorf("%d entries still live after all TTLs expired", got)
	}

	// The next query must hit the authoritative path again.
	if _, err := w.resolver.Resolve("www.example.com.", dnswire.TypeA); err != nil {
		t.Fatal(err)
	}
	if got := w.net.QueryCount(); got == baseline {
		t.Error("post-expiry resolution sent no upstream queries")
	}
}

func TestResolveADBitSecure(t *testing.T) {
	w := buildWorld(t, true, true)
	res, err := w.resolver.Resolve("example.com.", dnswire.TypeHTTPS)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AuthenticatedData {
		t.Error("AD bit not set for secure chain")
	}
	if len(res.Sigs) == 0 {
		t.Error("signatures not returned")
	}
}

func TestResolveADBitMissingDS(t *testing.T) {
	// The classic misconfiguration: zone signed, DS never uploaded.
	w := buildWorld(t, true, false)
	res, err := w.resolver.Resolve("example.com.", dnswire.TypeHTTPS)
	if err != nil {
		t.Fatal(err)
	}
	if res.AuthenticatedData {
		t.Error("AD bit set despite missing DS")
	}
	if len(res.Sigs) == 0 {
		t.Error("RRSIGs should still be returned (signed but insecure)")
	}
}

func TestResolveServerDown(t *testing.T) {
	w := buildWorld(t, false, false)
	w.net.SetAddrDown(w.exAddr, true)
	if _, err := w.resolver.Resolve("www.example.com.", dnswire.TypeA); err == nil {
		t.Error("resolution succeeded with authoritative server down")
	}
	// Recovery.
	w.net.SetAddrDown(w.exAddr, false)
	if _, err := w.resolver.Resolve("www.example.com.", dnswire.TypeA); err != nil {
		t.Errorf("resolution failed after recovery: %v", err)
	}
}

func TestHandleDNSStubInterface(t *testing.T) {
	w := buildWorld(t, true, true)
	q := dnswire.NewQuery(7, "example.com.", dnswire.TypeHTTPS, true)
	resp := w.resolver.HandleDNS(q)
	if resp.RCode != dnswire.RCodeNoError || !resp.RecursionAvailable {
		t.Fatalf("resp = %+v", resp)
	}
	if !resp.AuthenticatedData {
		t.Error("AD bit missing in stub response")
	}
	var hasSig bool
	for _, rr := range resp.Answer {
		if rr.Type == dnswire.TypeRRSIG {
			hasSig = true
		}
	}
	if !hasSig {
		t.Error("DO stub query missing RRSIG in answer")
	}
	// Without DO: no sigs.
	q2 := dnswire.NewQuery(8, "example.com.", dnswire.TypeHTTPS, false)
	resp2 := w.resolver.HandleDNS(q2)
	for _, rr := range resp2.Answer {
		if rr.Type == dnswire.TypeRRSIG {
			t.Error("non-DO stub response contains RRSIG")
		}
	}
}

func TestCacheLenAndFlush(t *testing.T) {
	w := buildWorld(t, false, false)
	if _, err := w.resolver.Resolve("www.example.com.", dnswire.TypeA); err != nil {
		t.Fatal(err)
	}
	if w.resolver.cacheLen() == 0 {
		t.Error("cache empty after resolution")
	}
	w.resolver.FlushCache()
	if w.resolver.cacheLen() != 0 {
		t.Error("cache not empty after flush")
	}
}
