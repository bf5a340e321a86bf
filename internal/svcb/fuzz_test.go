package svcb

import (
	"bytes"
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"repro/internal/ech"
)

// paramSeeds packs the SvcParams of the three record shapes the world
// serves most: Cloudflare's proxied default (alpn plus both hints), the
// same with an ech config list, and one record of the nexuspipe priority
// list (a port alone).
func paramSeeds(t testing.TB) [][]byte {
	t.Helper()
	km, err := ech.NewKeyManager(rand.New(rand.NewSource(1)), "cloudflare-ech.com",
		time.Hour, 2*time.Hour, time.Date(2023, 7, 20, 0, 0, 0, 0, time.UTC))
	if err != nil {
		t.Fatal(err)
	}
	var cfDefault Params
	if err := cfDefault.SetALPN([]string{"h2", "h3", "h3-29"}); err != nil {
		t.Fatal(err)
	}
	if err := cfDefault.SetIPv4Hints([]netip.Addr{netip.MustParseAddr("104.16.132.229")}); err != nil {
		t.Fatal(err)
	}
	if err := cfDefault.SetIPv6Hints([]netip.Addr{netip.MustParseAddr("2606:4700::6810:84e5")}); err != nil {
		t.Fatal(err)
	}
	list := km.ConfigList(time.Date(2023, 7, 21, 0, 0, 0, 0, time.UTC))
	if len(list) == 0 {
		t.Fatal("key manager published no ECH config list")
	}
	withECH := cfDefault.Clone()
	withECH.SetECH(list)
	var priority Params
	priority.SetPort(8001)

	var seeds [][]byte
	for _, ps := range []Params{cfDefault, withECH, priority} {
		wire, err := ps.Pack(nil)
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, wire)
	}
	return seeds
}

// FuzzUnpackParamsInto drives the SvcParams decoder every HTTPS answer the
// scanner reads goes through, with dirty reuse: decoding into a list that
// still holds the ECH record's params must agree with a fresh decode on the
// error or on every key and value, and whatever is accepted packs
// back to the input bytes and decodes to the same params again.
func FuzzUnpackParamsInto(f *testing.F) {
	seeds := paramSeeds(f)
	for _, s := range seeds {
		f.Add(s)
	}
	f.Add([]byte{})
	f.Add(seeds[1][:len(seeds[1])-3])
	dirtyWire := seeds[1]
	f.Fuzz(func(t *testing.T, data []byte) {
		fresh, freshErr := UnpackParamsInto(nil, data)
		dirty, err := UnpackParamsInto(nil, dirtyWire)
		if err != nil {
			t.Fatalf("dirty template failed to decode: %v", err)
		}
		dirty, dirtyErr := UnpackParamsInto(dirty, data)
		if (freshErr == nil) != (dirtyErr == nil) || (freshErr != nil && freshErr.Error() != dirtyErr.Error()) {
			t.Fatalf("fresh/dirty errors diverged: %v vs %v", freshErr, dirtyErr)
		}
		if freshErr != nil {
			return
		}
		assertSameParams(t, "dirty", fresh, dirty)
		wire, err := fresh.Pack(nil)
		if err != nil {
			t.Fatalf("accepted params failed to pack: %v", err)
		}
		if !bytes.Equal(wire, data) {
			t.Fatalf("accepted %x re-packs to %x", data, wire)
		}
		again, err := UnpackParamsInto(nil, wire)
		if err != nil {
			t.Fatalf("re-packed params failed to decode: %v", err)
		}
		assertSameParams(t, "re-decoded", fresh, again)
	})
}

func assertSameParams(t *testing.T, what string, want, got Params) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d params, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i].Key != want[i].Key || !bytes.Equal(got[i].Value, want[i].Value) {
			t.Fatalf("%s: param %d is %v=%x, want %v=%x", what, i, got[i].Key, got[i].Value, want[i].Key, want[i].Value)
		}
	}
}
