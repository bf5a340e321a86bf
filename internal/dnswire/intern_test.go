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

// queryWires packs one query per name, "q<i>.<zone>" for i in [from, to).
func queryWires(t *testing.T, zone string, from, to int) [][]byte {
	t.Helper()
	wires := make([][]byte, 0, to-from)
	for i := from; i < to; i++ {
		q := NewQuery(uint16(i), fmt.Sprintf("q%d.%s", i, zone), TypeHTTPS, true)
		w, err := q.Pack()
		if err != nil {
			t.Fatal(err)
		}
		q.Release()
		wires = append(wires, w)
	}
	return wires
}

// decodeName decodes w into m and returns the question's name.
func decodeName(t *testing.T, m *Message, w []byte) string {
	if err := UnpackInto(m, w); err != nil {
		t.Error(err)
		return ""
	}
	return m.Question[0].Name
}

// TestDecodedNamesSharedAcrossGoroutines: 5 000 queries with names of their
// own — more than one pooled scratch's table used to hold — decoded on one
// goroutine and again on another, through whatever scratch each one draws.
// The second pass mints no name, and both passes hand out one string per
// name.
func TestDecodedNamesSharedAcrossGoroutines(t *testing.T) {
	const zone = "shared-names.test."
	const n = 5000
	wires := queryWires(t, zone, 0, n)
	other := queryWires(t, "other.test.", 0, 1)[0]
	var m Message
	first := make([]*byte, n)
	for i, w := range wires {
		first[i] = unsafe.StringData(decodeName(t, &m, w))
	}
	second := make([]*byte, n)
	var allocs float64
	done := make(chan struct{})
	go func() {
		defer close(done)
		var m Message
		decodeName(t, &m, other) // the message's own slices
		// The first call decodes the first name, the second all the rest:
		// as AllocsPerRun's warm-up and measured run, no call decodes a
		// name this goroutine has seen, and the count is a total, not a
		// mean rounded down to 0.
		from, to := 0, 1
		pass := func() {
			for i := from; i < to; i++ {
				second[i] = unsafe.StringData(decodeName(t, &m, wires[i]))
			}
			from, to = to, n
		}
		if testrace.Enabled {
			pass()
			pass()
			return
		}
		allocs = testing.AllocsPerRun(1, pass)
	}()
	<-done
	if allocs != 0 {
		t.Errorf("the second pass mints %v strings over %d names, want 0", allocs, n-1)
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("q%d.%s decoded as two strings", i, zone)
		}
	}
}

// TestDecodedNamesBound: the decode table admits names up to its own bound,
// not the default one, and no further; a name decoded past it is equal to
// what the wire spells but a copy of its own each time. The names this test
// adds are taken out again, so the table is as other tests left it.
func TestDecodedNamesBound(t *testing.T) {
	const zone = "bound-names.test."
	decodedNames.mu.RLock()
	held := len(decodedNames.m)
	decodedNames.mu.RUnlock()
	fill := decodedNames.bound() - held
	if fill <= 0 || decodedNames.bound() <= maxInterned {
		t.Fatalf("decode table holds %d names, bound %d", held, decodedNames.bound())
	}
	wires := queryWires(t, zone, 0, fill+1)
	t.Cleanup(func() {
		decodedNames.mu.Lock()
		for i := range wires {
			delete(decodedNames.m, fmt.Sprintf("q%d.%s", i, zone))
		}
		decodedNames.mu.Unlock()
	})
	var m Message
	for _, w := range wires[:fill] {
		decodeName(t, &m, w)
	}
	// Two fresh messages: a recycled question slot would lend its string.
	late := wires[fill]
	a, b := decodeName(t, new(Message), late), decodeName(t, new(Message), late)
	if want := fmt.Sprintf("q%d.%s", fill, zone); a != want || b != want {
		t.Errorf("a name past the bound decoded as %q and %q, want %q", a, b, want)
	}
	if unsafe.StringData(a) == unsafe.StringData(b) {
		t.Error("a name past the bound came back shared")
	}
	decodedNames.mu.RLock()
	defer decodedNames.mu.RUnlock()
	if len(decodedNames.m) != decodedNames.bound() {
		t.Errorf("decode table holds %d names, bound %d", len(decodedNames.m), decodedNames.bound())
	}
}

// TestDecodedNamesConcurrent: 8 goroutines decoding one name set, each in
// its own order, get one string per name (run it under -race).
func TestDecodedNamesConcurrent(t *testing.T) {
	const names, workers = 256, 8
	wires := queryWires(t, "concurrent-names.test.", 0, names)
	got := make([][names]*byte, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var m Message
			for _, i := range rand.New(rand.NewSource(int64(w))).Perm(names) {
				got[w][i] = unsafe.StringData(decodeName(t, &m, wires[i]))
			}
		}()
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if got[w] != got[0] {
			t.Fatalf("worker %d got other strings than worker 0", w)
		}
	}
}
