package scanner

import (
	"fmt"
	"math/rand"
	"net/netip"
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
// holds the same string; a table of names stops growing at its bound and
// copies the names past it.
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

	names := &nameTable{m: map[string]string{}}
	for i := 0; i < 2*maxPublicNames; i++ {
		if s := names.intern(fmt.Appendf(nil, "cover%d.example", i)); s != fmt.Sprintf("cover%d.example", i) {
			t.Fatalf("interned %q as %q", fmt.Sprintf("cover%d.example", i), s)
		}
	}
	if len(names.m) != maxPublicNames {
		t.Errorf("table holds %d names, bound %d", len(names.m), maxPublicNames)
	}
	late := []byte("late.example")
	if a, b := names.intern(late), names.intern(late); a != "late.example" || unsafe.StringData(a) == unsafe.StringData(b) {
		t.Errorf("a name past the bound came back %q, shared %v", a, unsafe.StringData(a) == unsafe.StringData(b))
	}
}
