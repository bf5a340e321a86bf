package resolver

import (
	"net/netip"
	"slices"
	"testing"
	"time"

	"repro/internal/authserver"
	"repro/internal/dnssec"
	"repro/internal/dnswire"
	"repro/internal/simnet"
	"repro/internal/zone"
)

// TestPutMarksOnlyTheFetchedKeys: a zone's keys count as validated only
// when Put is handed its live DNSKEY answer's own records. An equal copy, a
// prefix of them, or the records of an answer that has since been fetched
// again mark nothing.
func TestPutMarksOnlyTheFetchedKeys(t *testing.T) {
	w := buildWorld(t, true, true)
	r := w.resolver
	const apex = "example.com."
	keys, _, ok := r.FetchRRset(apex, dnswire.TypeDNSKEY)
	if !ok || len(keys) < 2 {
		t.Fatalf("DNSKEY RRset of %s: %d records", apex, len(keys))
	}
	for _, c := range []struct {
		what string
		keys []dnswire.RR
	}{
		{"an equal copy", slices.Clone(keys)},
		{"a prefix", keys[:1]},
		{"nothing", nil},
	} {
		r.Put(apex, c.keys)
		if _, ok := r.Get(apex); ok {
			t.Errorf("Put of %s of the keys marked them validated", c.what)
		}
	}
	r.Put(apex, keys)
	if got, ok := r.Get(apex); !ok || &got[0] != &keys[0] || len(got) != len(keys) {
		t.Errorf("Put of the fetched keys: Get = %d records, %v; want those records", len(got), ok)
	}

	w.clock.Advance(time.Hour) // the DNSKEY TTL: the next fetch asks again
	fresh, _, _ := r.FetchRRset(apex, dnswire.TypeDNSKEY)
	if len(fresh) == 0 || &fresh[0] == &keys[0] {
		t.Fatal("the DNSKEY RRset was not fetched again")
	}
	r.Put(apex, keys)
	if _, ok := r.Get(apex); ok {
		t.Error("the keys of an expired answer marked the one fetched after it")
	}
	r.Put(apex, fresh)
	if _, ok := r.Get(apex); !ok {
		t.Error("Put of the fetched keys marked nothing")
	}
}

// TestValidatedKeysLiveWithTheirAnswer: a secure resolution leaves every
// zone key on its chain validated, for as long as the DNSKEY answer lives,
// and FlushCache and Fork start without any.
func TestValidatedKeysLiveWithTheirAnswer(t *testing.T) {
	w := buildWorld(t, true, true)
	r := w.resolver
	validated := func(r *Resolver) bool { _, ok := r.Get("example.com."); return ok }
	secure := func() {
		t.Helper()
		if res := w.mustResolve(t, "example.com.", dnswire.TypeHTTPS); !res.AuthenticatedData {
			t.Fatal("the secure chain did not validate")
		}
	}
	secure()
	for _, z := range []string{".", "com.", "example.com."} {
		if _, ok := r.Get(z); !ok {
			t.Errorf("%s keys not validated after a secure resolution", z)
		}
	}
	if validated(r.Fork(w.net)) {
		t.Error("a fresh fork starts with validated keys")
	}

	e, _ := r.cached("example.com.", dnswire.TypeDNSKEY)
	w.clock.Set(time.Unix(0, e.expires-1))
	if !validated(r) {
		t.Error("validated keys lost inside their DNSKEY answer's TTL")
	}
	w.clock.Set(time.Unix(0, e.expires))
	if validated(r) {
		t.Error("validated keys outlive their DNSKEY answer")
	}

	secure()
	if !validated(r) {
		t.Fatal("keys not validated again after a new secure resolution")
	}
	r.FlushCache()
	if validated(r) {
		t.Error("validated keys survive FlushCache")
	}
}

// questions wraps a handler and records every question that reaches it.
type questions struct {
	h   simnet.DNSHandler
	log *[]dnswire.Question
}

func (q questions) HandleDNS(m *dnswire.Message) *dnswire.Message {
	*q.log = append(*q.log, m.Question...)
	return q.h.HandleDNS(m)
}

// TestSecondSecureNameReusesZoneKeys adds a second signed zone, other.com.,
// beside example.com. Once example.com. has validated, other.com.'s HTTPS
// RRset validates with four signature checks — the DS RRsets of com. and
// other.com., other.com.'s DNSKEY self-signature and the RRset, not the
// root's and com.'s DNSKEY self-signatures — and no DNSKEY query for the
// root or com.: their keys come validated from the first chain.
func TestSecondSecureNameReusesZoneKeys(t *testing.T) {
	w := buildWorld(t, true, true)
	inception, expiration := w.clock.Now().Add(-time.Hour), w.clock.Now().Add(90*24*time.Hour)
	otherAddr := netip.MustParseAddr("10.2.0.53")
	other := zone.New("other.com.")
	other.SetSOA("ns1.other.com.", "hostmaster.other.com.", 1, 60)
	other.Add(nsRR("other.com.", "ns1.other.com."))
	other.Add(dnswire.RR{Name: "other.com.", Type: dnswire.TypeHTTPS, Class: dnswire.ClassINET,
		TTL: 60, Data: &dnswire.SVCBData{Priority: 1, Target: "."}})
	if err := other.Sign(7, inception, expiration); err != nil {
		t.Fatal(err)
	}
	ds, err := other.DS()
	if err != nil {
		t.Fatal(err)
	}
	w.comZone.Add(nsRR("other.com.", "ns1.other.com."))
	w.comZone.Add(aRR("ns1.other.com.", otherAddr.String(), 3600))
	w.comZone.Add(ds)
	if err := w.comZone.Sign(7, inception, expiration); err != nil {
		t.Fatal(err)
	}
	srv := authserver.New()
	srv.AddZone(other)
	w.auth[otherAddr] = srv
	var log []dnswire.Question
	for addr, h := range w.auth {
		w.net.RegisterDNS(addr, questions{h, &log})
	}

	if res := w.mustResolve(t, "example.com.", dnswire.TypeHTTPS); !res.AuthenticatedData {
		t.Fatal("example.com. did not validate")
	}
	log = log[:0]
	before := dnssec.ReadCounts()
	if res := w.mustResolve(t, "other.com.", dnswire.TypeHTTPS); !res.AuthenticatedData {
		t.Fatal("other.com. did not validate")
	}
	if n := dnssec.ReadCounts().Sub(before); n.Verifies+n.Hits != 4 {
		t.Errorf("second secure name: %d signature checks, want 4 (two DS, a DNSKEY, the HTTPS RRset)", n.Verifies+n.Hits)
	}
	keyQueries := 0
	for _, q := range log {
		if q.Type != dnswire.TypeDNSKEY {
			continue
		}
		if q.Name != "other.com." {
			t.Errorf("second secure name asked for the DNSKEY RRset of %s", q.Name)
		}
		keyQueries++
	}
	if keyQueries != 1 {
		t.Errorf("second secure name: %d DNSKEY queries, want 1 (other.com.)", keyQueries)
	}
}
