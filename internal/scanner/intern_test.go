package scanner

import (
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"repro/internal/dataset"
	"repro/internal/dnswire"
	"repro/internal/ech"
	"repro/internal/svcb"
)

// TestECHPublicNamesShared: every hourly observation of one public name,
// on the scanner or on a fork of it, and every daily record summary of it,
// holds the same string. (The bound of the table the names are interned
// in is dnswire's TestInternerBound.)
func TestECHPublicNamesShared(t *testing.T) {
	now := time.Date(2023, 7, 21, 0, 0, 0, 0, time.UTC)
	km, err := ech.NewKeyManager(rand.New(rand.NewSource(9)), "cover.example", time.Hour, time.Hour, now.Add(-3*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	tr := handAnswers{}
	for _, name := range []string{"a.test.", "b.test."} {
		var ps svcb.Params
		ps.SetECH(km.ConfigList(now))
		tr[name] = []dnswire.RR{{Name: name, Type: dnswire.TypeHTTPS, Class: dnswire.ClassINET, TTL: 300,
			Data: &dnswire.SVCBData{Priority: 1, Target: ".", Params: ps}}}
	}
	sc := New(nil, netip.Addr{}, netip.Addr{}, nil)
	sc.Transport = tr
	obs := sc.ECHScan(now, []string{"a.test.", "b.test."})
	obs = append(obs, sc.Fork(nil, tr).ECHScan(now.Add(time.Hour), []string{"a.test."})...)
	if len(obs) != 3 {
		t.Fatalf("%d observations, want 3", len(obs))
	}
	for _, name := range []string{"a.test.", "b.test."} {
		sum, ok := summarizeHTTPS(tr[name][0])
		if !ok {
			t.Fatalf("%s: no summary", name)
		}
		obs = append(obs, dataset.ECHObservation{Domain: name, PublicName: sum.ECHPublicName})
	}
	for _, o := range obs {
		if o.PublicName != "cover.example" || unsafe.StringData(o.PublicName) != unsafe.StringData(obs[0].PublicName) {
			t.Errorf("%s at %v: public name %q at %p, want %q at %p", o.Domain, o.Time, o.PublicName,
				unsafe.StringData(o.PublicName), "cover.example", unsafe.StringData(obs[0].PublicName))
		}
	}

}

// typedAnswers is a Transport that answers each (name, type) question from
// a hand-built table of records.
type typedAnswers map[dnswire.Question][]dnswire.RR

func (a typedAnswers) Exchange(q *dnswire.Message) (*dnswire.Message, error) {
	return &dnswire.Message{ID: q.ID, Response: true, Question: q.Question, Answer: a[q.Question[0]]}, nil
}

// TestStoredValuesShared: observations of one value hold one array, across
// the domains of a list and across days — a domain's addresses and name
// servers, two domains' chased CNAME chains, the HTTPS set a CNAME leads to
// and the one a domain publishes itself, and the alpn and hint values of
// two different HTTPS sets — and an observation's hint read is its
// record's stored slice.
func TestStoredValuesShared(t *testing.T) {
	rr := func(name string, typ dnswire.Type, data dnswire.RData) dnswire.RR {
		return dnswire.RR{Name: name, Type: typ, Class: dnswire.ClassINET, TTL: 300, Data: data}
	}
	v4, v6 := netip.MustParseAddr("192.0.2.1"), netip.MustParseAddr("2001:db8::1")
	https := func(name string, priority uint16) dnswire.RR {
		var ps svcb.Params
		if err := ps.SetALPN([]string{"h2", "h3"}); err != nil {
			t.Fatal(err)
		}
		if err := ps.SetIPv4Hints([]netip.Addr{v4}); err != nil {
			t.Fatal(err)
		}
		if err := ps.SetIPv6Hints([]netip.Addr{v6}); err != nil {
			t.Fatal(err)
		}
		return rr(name, dnswire.TypeHTTPS, &dnswire.SVCBData{Priority: priority, Target: ".", Params: ps})
	}
	tr := typedAnswers{}
	at := func(name string, typ dnswire.Type) dnswire.Question {
		return dnswire.Question{Name: name, Type: typ, Class: dnswire.ClassINET}
	}
	for _, name := range []string{"a.test.", "b.test.", "c.test.", "d.test."} {
		tr[at(name, dnswire.TypeA)] = []dnswire.RR{rr(name, dnswire.TypeA, &dnswire.AData{Addr: v4})}
		tr[at(name, dnswire.TypeAAAA)] = []dnswire.RR{rr(name, dnswire.TypeAAAA, &dnswire.AAAAData{Addr: v6})}
		tr[at(name, dnswire.TypeNS)] = []dnswire.RR{
			rr(name, dnswire.TypeNS, &dnswire.NSData{Host: "ns1.host.test."}),
			rr(name, dnswire.TypeNS, &dnswire.NSData{Host: "ns2.host.test."}),
		}
	}
	tr[at("a.test.", dnswire.TypeHTTPS)] = []dnswire.RR{https("a.test.", 1)}
	tr[at("b.test.", dnswire.TypeHTTPS)] = []dnswire.RR{https("b.test.", 2)} // another set, the same values
	for _, name := range []string{"c.test.", "d.test."} {
		tr[at(name, dnswire.TypeHTTPS)] = []dnswire.RR{rr(name, dnswire.TypeCNAME, &dnswire.CNAMEData{Target: "cdn.test."})}
	}
	tr[at("cdn.test.", dnswire.TypeHTTPS)] = []dnswire.RR{https("cdn.test.", 1)}

	sc := &Scanner{Transport: tr}
	list := []string{"a.test", "b.test", "c.test", "d.test"}
	day := time.Date(2024, 1, 25, 0, 0, 0, 0, time.UTC)
	first, second := sc.ScanList(day, "apex", list), sc.ScanList(day.AddDate(0, 0, 1), "apex", list)
	obs := func(snap *dataset.Snapshot, name string) *dataset.Observation {
		o := snap.Obs[name]
		if o == nil || len(o.HTTPS) != 1 || len(o.A) != 1 || len(o.AAAA) != 1 || len(o.NS) != 2 {
			t.Fatalf("%s: observation %+v", name, o)
		}
		return o
	}
	a, b, c, d := obs(first, "a.test."), obs(first, "b.test."), obs(first, "c.test."), obs(first, "d.test.")
	later := obs(second, "a.test.")
	same := func(what string, x, y unsafe.Pointer) {
		t.Helper()
		if x != y {
			t.Errorf("%s: arrays %p and %p, want one", what, x, y)
		}
	}
	same("A across domains", unsafe.Pointer(unsafe.SliceData(a.A)), unsafe.Pointer(unsafe.SliceData(b.A)))
	same("A across days", unsafe.Pointer(unsafe.SliceData(a.A)), unsafe.Pointer(unsafe.SliceData(later.A)))
	same("AAAA", unsafe.Pointer(unsafe.SliceData(a.AAAA)), unsafe.Pointer(unsafe.SliceData(d.AAAA)))
	same("NS", unsafe.Pointer(unsafe.SliceData(b.NS)), unsafe.Pointer(unsafe.SliceData(c.NS)))
	same("CNAME chain", unsafe.Pointer(unsafe.SliceData(c.CNAMEChain)), unsafe.Pointer(unsafe.SliceData(d.CNAMEChain)))
	same("HTTPS set behind a CNAME", unsafe.Pointer(unsafe.SliceData(a.HTTPS)), unsafe.Pointer(unsafe.SliceData(c.HTTPS)))
	same("HTTPS set across days", unsafe.Pointer(unsafe.SliceData(a.HTTPS)), unsafe.Pointer(unsafe.SliceData(later.HTTPS)))
	if unsafe.SliceData(a.HTTPS) == unsafe.SliceData(b.HTTPS) {
		t.Error("two different HTTPS sets share one array")
	}
	ra, rb := a.HTTPS[0], b.HTTPS[0]
	same("alpn", unsafe.Pointer(unsafe.SliceData(ra.ALPN)), unsafe.Pointer(unsafe.SliceData(rb.ALPN)))
	same("ipv4hint", unsafe.Pointer(unsafe.SliceData(ra.V4Hints)), unsafe.Pointer(unsafe.SliceData(rb.V4Hints)))
	same("ipv6hint", unsafe.Pointer(unsafe.SliceData(ra.V6Hints)), unsafe.Pointer(unsafe.SliceData(rb.V6Hints)))
	same("V4Hints read", unsafe.Pointer(unsafe.SliceData(a.V4Hints())), unsafe.Pointer(unsafe.SliceData(ra.V4Hints)))
	same("V6Hints read", unsafe.Pointer(unsafe.SliceData(b.V6Hints())), unsafe.Pointer(unsafe.SliceData(rb.V6Hints)))
	if fmt.Sprint(ra.ALPN, ra.V4Hints, ra.V6Hints, c.CNAMEChain, a.NS) != "[h2 h3] [192.0.2.1] [2001:db8::1] [cdn.test.] [ns1.host.test. ns2.host.test.]" {
		t.Errorf("values %v %v %v %v %v", ra.ALPN, ra.V4Hints, ra.V6Hints, c.CNAMEChain, a.NS)
	}
}

// FuzzSummarizeHTTPS: the interned decode of alpn, ipv4hint and ipv6hint
// values returns what the svcb.Params accessors return, and nothing for a
// value they reject — on the first read of a value and on the next, which
// the table answers.
func FuzzSummarizeHTTPS(f *testing.F) {
	f.Add([]byte("\x02h2\x02h3"), []byte{192, 0, 2, 1}, netip.MustParseAddr("2001:db8::1").AsSlice())
	f.Add([]byte("\x02h2"), []byte{192, 0, 2, 1, 192, 0, 2, 2}, []byte{})
	f.Add([]byte("\x00"), []byte{1, 2, 3}, make([]byte, 17))
	f.Add([]byte("\x05h2"), []byte{}, make([]byte, 32))
	f.Add([]byte("\x02h3"), []byte("0123456789abcdef"), []byte("0123456789abcdef")) // one byte string, both hint keys
	f.Fuzz(func(t *testing.T, alpn, v4, v6 []byte) {
		var ps svcb.Params
		ps.Set(svcb.KeyALPN, alpn)
		ps.Set(svcb.KeyIPv4Hint, v4)
		ps.Set(svcb.KeyIPv6Hint, v6)
		want := dataset.HTTPSRecord{Priority: 1, Target: "."}
		want.ALPN, _ = ps.ALPN()
		want.V4Hints, _ = ps.IPv4Hints()
		want.V6Hints, _ = ps.IPv6Hints()
		rr := dnswire.RR{Name: "fuzz.test.", Type: dnswire.TypeHTTPS, Class: dnswire.ClassINET,
			Data: &dnswire.SVCBData{Priority: 1, Target: ".", Params: ps}}
		for range 2 {
			got, ok := summarizeHTTPS(rr)
			if !ok || !reflect.DeepEqual(got, want) {
				t.Fatalf("summarized %+v, want %+v", got, want)
			}
		}
	})
}
