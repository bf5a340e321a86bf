package zone

import (
	"bytes"
	"net/netip"
	"slices"
	"testing"
	"time"

	"repro/internal/dnssec"
	"repro/internal/dnswire"
)

func aRR(name, ip string, ttl uint32) dnswire.RR {
	return dnswire.RR{Name: name, Type: dnswire.TypeA, Class: dnswire.ClassINET, TTL: ttl,
		Data: &dnswire.AData{Addr: netip.MustParseAddr(ip)}}
}

func buildTestZone() *Zone {
	z := New("example.com")
	z.SetSOA("ns1.example.com.", "hostmaster.example.com.", 1, 300)
	z.Add(dnswire.RR{Name: "example.com.", Type: dnswire.TypeNS, Class: dnswire.ClassINET,
		TTL: 3600, Data: &dnswire.NSData{Host: "ns1.example.com."}})
	z.Add(aRR("ns1.example.com.", "10.0.0.53", 3600))
	z.Add(aRR("www.example.com.", "10.0.0.80", 300))
	z.Add(dnswire.RR{Name: "alias.example.com.", Type: dnswire.TypeCNAME, Class: dnswire.ClassINET,
		TTL: 300, Data: &dnswire.CNAMEData{Target: "www.example.com."}})
	z.Add(dnswire.RR{Name: "example.com.", Type: dnswire.TypeHTTPS, Class: dnswire.ClassINET,
		TTL: 300, Data: &dnswire.SVCBData{Priority: 1, Target: "."}})
	return z
}

func TestZoneExactMatch(t *testing.T) {
	z := buildTestZone()
	res := z.Query("www.example.com.", dnswire.TypeA, false)
	if res.RCode != dnswire.RCodeNoError || len(res.Answer) != 1 {
		t.Fatalf("Query = %+v", res)
	}
	if res.Answer[0].Data.(*dnswire.AData).Addr.String() != "10.0.0.80" {
		t.Errorf("wrong address: %v", res.Answer[0])
	}
}

func TestZoneCaseInsensitive(t *testing.T) {
	z := buildTestZone()
	res := z.Query("WWW.Example.COM", dnswire.TypeA, false)
	if len(res.Answer) != 1 {
		t.Errorf("case-insensitive lookup failed: %+v", res)
	}
}

func TestZoneNXDomainAndNODATA(t *testing.T) {
	z := buildTestZone()
	res := z.Query("nonexistent.example.com.", dnswire.TypeA, false)
	if res.RCode != dnswire.RCodeNXDomain {
		t.Errorf("want NXDOMAIN, got %v", res.RCode)
	}
	if len(res.Authority) == 0 || res.Authority[0].Type != dnswire.TypeSOA {
		t.Error("NXDOMAIN missing SOA in authority")
	}
	// Name exists, type does not: NODATA.
	res = z.Query("www.example.com.", dnswire.TypeHTTPS, false)
	if res.RCode != dnswire.RCodeNoError || len(res.Answer) != 0 {
		t.Errorf("NODATA wrong: %+v", res)
	}
	if len(res.Authority) == 0 {
		t.Error("NODATA missing SOA")
	}
}

func TestZoneCNAME(t *testing.T) {
	z := buildTestZone()
	res := z.Query("alias.example.com.", dnswire.TypeA, false)
	if len(res.Answer) != 2 {
		t.Fatalf("CNAME chase answer = %+v", res.Answer)
	}
	if res.Answer[0].Type != dnswire.TypeCNAME || res.Answer[1].Type != dnswire.TypeA {
		t.Errorf("CNAME chase order wrong: %+v", res.Answer)
	}
}

func TestZoneRefusesOutOfZone(t *testing.T) {
	z := buildTestZone()
	res := z.Query("other.net.", dnswire.TypeA, false)
	if res.RCode != dnswire.RCodeRefused {
		t.Errorf("out-of-zone rcode = %v", res.RCode)
	}
}

func TestZoneDelegation(t *testing.T) {
	z := buildTestZone()
	z.Add(dnswire.RR{Name: "sub.example.com.", Type: dnswire.TypeNS, Class: dnswire.ClassINET,
		TTL: 3600, Data: &dnswire.NSData{Host: "ns1.sub.example.com."}})
	z.Add(aRR("ns1.sub.example.com.", "10.0.1.53", 3600))
	res := z.Query("deep.sub.example.com.", dnswire.TypeA, false)
	if !res.Referral {
		t.Fatalf("expected referral: %+v", res)
	}
	if len(res.Authority) == 0 || res.Authority[0].Type != dnswire.TypeNS {
		t.Error("referral missing NS")
	}
	if len(res.Additional) == 0 {
		t.Error("referral missing glue")
	}
}

func TestZoneAddReplacesDuplicate(t *testing.T) {
	z := New("a.com")
	z.Add(aRR("a.com.", "1.1.1.1", 300))
	z.Add(aRR("a.com.", "1.1.1.1", 300)) // identical
	rrs, _, _ := z.Lookup("a.com.", dnswire.TypeA)
	if len(rrs) != 1 {
		t.Errorf("duplicate add produced %d records", len(rrs))
	}
	z.Add(aRR("a.com.", "2.2.2.2", 300))
	rrs, _, _ = z.Lookup("a.com.", dnswire.TypeA)
	if len(rrs) != 2 {
		t.Errorf("distinct add produced %d records", len(rrs))
	}
}

func TestZoneRemove(t *testing.T) {
	z := buildTestZone()
	z.RemoveRRset("www.example.com.", dnswire.TypeA)
	if _, _, ok := z.Lookup("www.example.com.", dnswire.TypeA); ok {
		t.Error("RemoveRRset did not remove")
	}
}

func TestZoneSigning(t *testing.T) {
	z := buildTestZone()
	inception := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	if err := z.Sign(1, inception, inception.Add(30*24*time.Hour)); err != nil {
		t.Fatal(err)
	}
	// DNSKEY RRset exists and is signed.
	keys, sigs, ok := z.Lookup("example.com.", dnswire.TypeDNSKEY)
	if !ok || len(keys) != 2 || len(sigs) != 1 {
		t.Fatalf("DNSKEY lookup: %d keys, %d sigs, ok=%v", len(keys), len(sigs), ok)
	}
	// The HTTPS RRset has a verifiable signature by the ZSK.
	rrs, hsigs, ok := z.Lookup("example.com.", dnswire.TypeHTTPS)
	if !ok || len(hsigs) != 1 {
		t.Fatalf("HTTPS lookup: ok=%v sigs=%d", ok, len(hsigs))
	}
	zsk := dnssec.DeriveKey(1, "example.com.", false)
	now := inception.Add(time.Hour)
	if err := dnssec.VerifyRRSIG(hsigs[0], rrs, zsk.DNSKEY(3600), now); err != nil {
		t.Errorf("HTTPS RRSIG invalid: %v", err)
	}
	// Query with DO returns signatures; without DO it does not.
	res := z.Query("example.com.", dnswire.TypeHTTPS, true)
	if !hasType(res.Answer, dnswire.TypeRRSIG) {
		t.Error("DO query missing RRSIG")
	}
	res = z.Query("example.com.", dnswire.TypeHTTPS, false)
	if hasType(res.Answer, dnswire.TypeRRSIG) {
		t.Error("non-DO query contains RRSIG")
	}
	// DS generation works, and only once the zone is signed.
	if _, err := z.DS(); err != nil {
		t.Errorf("DS: %v", err)
	}
	if _, err := buildTestZone().DS(); err == nil {
		t.Error("DS of an unsigned zone succeeded")
	}
}

func TestZoneSignInvalidatedByAdd(t *testing.T) {
	z := buildTestZone()
	inception := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	if err := z.Sign(2, inception, inception.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	z.Add(aRR("www.example.com.", "10.0.0.81", 300))
	_, sigs, _ := z.Lookup("www.example.com.", dnswire.TypeA)
	if len(sigs) != 0 {
		t.Error("stale signature survived RRset change")
	}
}

// TestZoneSigningIsOrderIndependent: Sign ranges over a map, so two
// signings of one zone visit its RRsets in different orders; the keys and
// every signature must come out the same bytes all the same.
func TestZoneSigningIsOrderIndependent(t *testing.T) {
	inception := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	sign := func() *Zone {
		z := buildTestZone()
		if err := z.Sign(3, inception, inception.Add(time.Hour)); err != nil {
			t.Fatal(err)
		}
		return z
	}
	first := sign()
	if len(first.sigs) < 5 {
		t.Fatalf("test zone has %d signed RRsets, want several", len(first.sigs))
	}
	for round := 0; round < 8; round++ {
		again := sign()
		if len(again.sigs) != len(first.sigs) {
			t.Fatalf("round %d: %d signed RRsets, first signing had %d", round, len(again.sigs), len(first.sigs))
		}
		for k, sigs := range first.sigs {
			want := sigs[0].Data.(*dnswire.RRSIGData)
			got := again.sigs[k][0].Data.(*dnswire.RRSIGData)
			if got.KeyTag != want.KeyTag || !bytes.Equal(got.SignatureBytes(), want.SignatureBytes()) {
				t.Errorf("round %d: %s/%s signed differently", round, k.name, k.typ)
			}
		}
	}
}

func hasType(rrs []dnswire.RR, t dnswire.Type) bool {
	for _, rr := range rrs {
		if rr.Type == t {
			return true
		}
	}
	return false
}

// TestZoneReferralPicksTopmostCut: with nested cuts, a question below both
// is referred to the upper one — the zone it is delegated to — every time,
// whatever order the cuts were added or are stored in. A DS question at
// the lower cut goes there too; one at the upper cut is answered here.
func TestZoneReferralPicksTopmostCut(t *testing.T) {
	z := New("example.")
	z.SetSOA("ns.example.", "hostmaster.example.", 1, 300)
	for _, cut := range []string{"b.a.example.", "a.example."} {
		z.Add(dnswire.RR{Name: cut, Type: dnswire.TypeNS, Class: dnswire.ClassINET, TTL: 3600,
			Data: &dnswire.NSData{Host: "ns." + cut}})
		z.Add(dnswire.RR{Name: cut, Type: dnswire.TypeDS, Class: dnswire.ClassINET, TTL: 3600,
			Data: &dnswire.DSData{KeyTag: 1, Algorithm: 13, DigestType: 2, Digest: make([]byte, 32)}})
	}
	for i := 0; i < 200; i++ {
		for _, q := range []struct {
			name string
			t    dnswire.Type
		}{{"x.b.a.example.", dnswire.TypeA}, {"b.a.example.", dnswire.TypeNS}, {"b.a.example.", dnswire.TypeDS}} {
			res := z.Query(q.name, q.t, true)
			if !res.Referral || len(res.Authority) == 0 || res.Authority[0].Name != "a.example." {
				t.Fatalf("ask %d for %s/%s: referral %v to %+v, want a.example.", i, q.name, q.t, res.Referral, res.Authority)
			}
		}
	}
	if res := z.Query("a.example.", dnswire.TypeDS, false); res.Referral || len(res.Answer) != 1 {
		t.Errorf("DS at the upper cut: %+v, want the parent's answer", res)
	}
}

// TestZoneAnswersShareRecords: a served record's RDATA is the zone's own,
// each section a slice of its own; a later Add or RemoveRRset replaces
// records and leaves what was served as it was.
func TestZoneAnswersShareRecords(t *testing.T) {
	z := buildTestZone()
	inception := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	if err := z.Sign(4, inception, inception.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	www := z.rrsets[rrsetKey{name: "www.example.com.", typ: dnswire.TypeA}][0].Data
	ans := z.Query("www.example.com.", dnswire.TypeA, true)
	plain := z.Query("www.example.com.", dnswire.TypeA, false)
	neg := z.Query("www.example.com.", dnswire.TypeAAAA, true)
	if len(ans.Answer) != 2 || ans.Answer[0].Data != www || len(plain.Answer) != 1 || plain.Answer[0].Data != www {
		t.Fatalf("answers %+v and %+v do not serve the zone's record %p", ans.Answer, plain.Answer, www)
	}
	soa := z.rrsets[rrsetKey{name: "example.com.", typ: dnswire.TypeSOA}][0].Data
	if len(neg.Authority) != 2 || neg.Authority[0].Data != soa {
		t.Fatalf("NODATA authority %+v does not serve the zone's SOA %p", neg.Authority, soa)
	}
	served, servedPlain := slices.Clone(ans.Answer), slices.Clone(plain.Answer)
	z.Add(aRR("www.example.com.", "10.0.0.80", 300)) // identical: replaced in place
	z.Add(aRR("www.example.com.", "10.0.0.81", 300))
	if again := z.Query("www.example.com.", dnswire.TypeA, false); len(again.Answer) != 2 || again.Answer[0].Data == www {
		t.Errorf("after Add: %+v, want the replacement and the new record", again.Answer)
	}
	z.RemoveRRset("www.example.com.", dnswire.TypeA)
	if !slices.Equal(ans.Answer, served) || !slices.Equal(plain.Answer, servedPlain) ||
		ans.Answer[0].Data.(*dnswire.AData).Addr != netip.MustParseAddr("10.0.0.80") {
		t.Errorf("served answers changed under Add and RemoveRRset: %+v and %+v, were %+v and %+v",
			ans.Answer, plain.Answer, served, servedPlain)
	}
}
