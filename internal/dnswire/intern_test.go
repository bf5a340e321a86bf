package dnswire

import (
	"fmt"
	"math/rand"
	"net/netip"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/testrace"
)

// TestInternerBound: a table keeps values up to its bound and no further;
// a value past it is still returned, a copy each time, and the table does
// not grow.
func TestInternerBound(t *testing.T) {
	var names Interner[string]
	intern := func(b []byte) string {
		if s, ok := names.Lookup(b); ok {
			return s
		}
		return names.Keep(b, string(b))
	}
	for i := 0; i < maxInterned+10; i++ {
		want := fmt.Sprintf("name%d.example", i)
		if s := intern([]byte(want)); s != want {
			t.Fatalf("interned %q as %q", want, s)
		}
	}
	if len(names.m) != maxInterned {
		t.Errorf("table holds %d values, bound %d", len(names.m), maxInterned)
	}
	first := []byte("name0.example")
	if a, b := intern(first), intern(first); unsafe.StringData(a) != unsafe.StringData(b) {
		t.Error("a value kept before the bound came back as two strings")
	}
	late := []byte("late.example")
	if a, b := intern(late), intern(late); a != "late.example" || unsafe.StringData(a) == unsafe.StringData(b) {
		t.Errorf("a value past the bound came back %q, shared %v", a, unsafe.StringData(a) == unsafe.StringData(b))
	}
	if len(names.m) != maxInterned {
		t.Errorf("table grew to %d values past its bound %d", len(names.m), maxInterned)
	}
}

// TestInternAddrs: equal lists share one array, never the caller's; a key
// tells a family's bytes apart (four IPv4 addresses are not one IPv6
// address of the same 16 bytes, nor 1.2.3.4 its IPv4-mapped form); a zoned
// address is copied, not kept; a hit allocates nothing.
func TestInternAddrs(t *testing.T) {
	if InternAddrs(nil) != nil {
		t.Error("no addresses interned as a non-nil list")
	}
	v4 := []netip.Addr{
		netip.MustParseAddr("1.2.3.4"), netip.MustParseAddr("5.6.7.8"),
		netip.MustParseAddr("9.10.11.12"), netip.MustParseAddr("13.14.15.16"),
	}
	v6 := []netip.Addr{netip.MustParseAddr("102:304:506:708:90a:b0c:d0e:f10")}
	mapped := []netip.Addr{netip.MustParseAddr("::ffff:1.2.3.4")}
	a, b := InternAddrs(v4), InternAddrs(append([]netip.Addr(nil), v4...))
	if unsafe.SliceData(a) != unsafe.SliceData(b) || unsafe.SliceData(a) == unsafe.SliceData(v4) {
		t.Errorf("equal lists at %p and %p (caller's %p): want one array, not the caller's",
			unsafe.SliceData(a), unsafe.SliceData(b), unsafe.SliceData(v4))
	}
	for _, in := range [][]netip.Addr{v4, v6, v4[:1], mapped} {
		if got := InternAddrs(in); fmt.Sprint(got) != fmt.Sprint(in) {
			t.Errorf("interned %v as %v", in, got)
		}
	}
	zoned := []netip.Addr{netip.MustParseAddr("fe80::1%eth0")}
	if z1, z2 := InternAddrs(zoned), InternAddrs(zoned); z1[0] != zoned[0] || unsafe.SliceData(z1) == unsafe.SliceData(z2) {
		t.Errorf("zoned address interned as %v, shared %v", z1, unsafe.SliceData(z1) == unsafe.SliceData(z2))
	}
	if testrace.Enabled {
		return
	}
	if n := testing.AllocsPerRun(100, func() { InternAddrs(v4) }); n != 0 {
		t.Errorf("a hit allocates %v times, want 0", n)
	}
}

// TestInternerConcurrent: goroutines interning one value set, each in its
// own order, into a table of their own and through InternAddrs, all get
// one array per value (run it under -race).
func TestInternerConcurrent(t *testing.T) {
	var lists Interner[[]netip.Addr]
	const values, workers = 64, 8
	got := make([][2 * values]*netip.Addr, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, v := range rand.New(rand.NewSource(int64(w))).Perm(values) {
				addrs := []netip.Addr{netip.AddrFrom4([4]byte{192, 0, 2, byte(v)}), netip.IPv6Loopback()}
				key := fmt.Appendf(nil, "%v", addrs)
				set, ok := lists.Lookup(key)
				if !ok {
					set = lists.Keep(key, addrs)
				}
				if set[0] != addrs[0] {
					t.Errorf("value %d interned as %v", v, set)
				}
				got[w][v] = unsafe.SliceData(set)
				got[w][values+v] = unsafe.SliceData(InternAddrs(addrs))
			}
		}()
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if got[w] != got[0] {
			t.Fatalf("worker %d got other arrays than worker 0", w)
		}
	}
	if len(lists.m) != values {
		t.Errorf("table holds %d values, want %d", len(lists.m), values)
	}
}
