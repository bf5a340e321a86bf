package dnswire

import (
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"testing"

	"repro/internal/testrace"
)

// TestSkeletonAllocBudgets pins what a query, a reply and the name helpers
// cost on canonical input, so a regression fails here and not in a
// benchmark run: one allocation for a skeleton its holder keeps, none for
// one that comes back through Release.
func TestSkeletonAllocBudgets(t *testing.T) {
	if testrace.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	q := NewQuery(1, "www.example.com.", TypeHTTPS, true)
	// An empty pool, so that the count of fresh skeletons does not depend on
	// what earlier tests released.
	fresh := skeletons.New
	skeletons.New = nil
	for skeletons.Get() != nil {
	}
	skeletons.New = fresh
	var sink *Message
	var name string
	for _, c := range []struct {
		what string
		want float64
		fn   func()
	}{
		{"NewQuery of a canonical name", 1, func() { sink = NewQuery(2, "www.example.com.", TypeA, true) }},
		{"Reply of a one-question EDNS query", 1, func() { sink = q.Reply() }},
		{"NewQuery and Release", 0, func() { NewQuery(2, "www.example.com.", TypeA, true).Release() }},
		{"Reply and Release", 0, func() { q.Reply().Release() }},
		{"SetEDNS0 on a skeleton", 0, func() { q.SetEDNS0(MaxUDPSize, false); q.SetEDNS0(MaxUDPSize, true) }},
		{"CanonicalName of canonical input", 0, func() { name = CanonicalName("www.example.com.") }},
		{"ApexOf canonical input", 0, func() { name = ApexOf("www.example.com.") }},
	} {
		if got := testing.AllocsPerRun(100, c.fn); got != c.want {
			t.Errorf("%s: %v allocations, want %v", c.what, got, c.want)
		}
	}
	_, _ = sink, name
}

func TestSetEDNS0FlipsSkeletonInPlace(t *testing.T) {
	q := NewQuery(1, "example.com.", TypeA, false)
	opt := &q.Additional[0]
	data := opt.Data
	q.SetEDNS0(1232, true)
	if !q.DNSSECOK() || q.UDPSize() != 1232 {
		t.Fatalf("DO=%v size=%d after SetEDNS0(1232, true)", q.DNSSECOK(), q.UDPSize())
	}
	if &q.Additional[0] != opt || q.Additional[0].Data != data || len(q.Additional) != 1 {
		t.Error("SetEDNS0 moved the skeleton's OPT record instead of rewriting it in place")
	}
}

// TestSkeletonAppendsNeverAlias: the inline question and OPT slots are
// handed out with capacity 1, so whatever a handler appends to a reply
// lands in an array of the reply's own — never in the query, and never in
// another reply to it.
func TestSkeletonAppendsNeverAlias(t *testing.T) {
	q := NewQuery(9, "example.com.", TypeHTTPS, true)
	r1, r2 := q.Reply(), q.Reply()
	for _, m := range []*Message{q, r1, r2} {
		if cap(m.Question) != 1 || cap(m.Additional) != 1 {
			t.Fatalf("skeleton hands out Question cap %d, Additional cap %d; want 1 and 1", cap(m.Question), cap(m.Additional))
		}
	}
	wantQ, wantR2 := snapshot(q), snapshot(r2)

	glue := RR{Name: "ns.example.com.", Type: TypeA, Class: ClassINET, TTL: 60, Data: &AData{Addr: netip.MustParseAddr("192.0.2.1")}}
	r1.Question = append(r1.Question, Question{Name: "other.example.", Type: TypeA, Class: ClassINET})
	r1.Additional = append(r1.Additional, glue)
	r1.Answer = append(r1.Answer, glue)
	// Scribble over everything r1 now holds.
	for i := range r1.Question {
		r1.Question[i].Name = "scribbled."
	}
	for i := range r1.Additional {
		r1.Additional[i].Name, r1.Additional[i].TTL = "scribbled.", 0
	}
	r1.Additional[0].Data.(*OPTData).Options = []EDNSOption{{Code: 10, Data: []byte{1}}}

	if got := snapshot(q); !reflect.DeepEqual(got, wantQ) {
		t.Errorf("query changed after appends to its reply:\n got %+v\nwant %+v", got, wantQ)
	}
	if got := snapshot(r2); !reflect.DeepEqual(got, wantR2) {
		t.Errorf("second reply changed after appends to the first:\n got %+v\nwant %+v", got, wantR2)
	}
}

// TestReplyCopiesOtherQuestionCounts: only the one-question query rides in
// the skeleton; any other count is copied.
func TestReplyCopiesOtherQuestionCounts(t *testing.T) {
	q := NewQuery(3, "a.example.", TypeA, false)
	q.Question = append(q.Question, Question{Name: "b.example.", Type: TypeAAAA, Class: ClassINET})
	r := q.Reply()
	if !reflect.DeepEqual(r.Question, q.Question) {
		t.Fatalf("reply questions %+v, want %+v", r.Question, q.Question)
	}
	r.Question[1].Name = "scribbled."
	if q.Question[1].Name != "b.example." {
		t.Error("reply to a two-question query shares the query's question array")
	}
	q.Question = nil
	if r := q.Reply(); len(r.Question) != 0 || r.OPT() == nil {
		t.Errorf("reply to a question-less query: %d questions, OPT %v", len(r.Question), r.OPT())
	}
}

// TestDirtySkeletonAsUnpackTarget: a reply that was answered and packed is
// then recycled as the target of UnpackInto for an unrelated message.
// Slot-matched reuse writes through Data pointers; the only RDATA it may
// reach through the skeleton is the skeleton's own OPTData.
func TestDirtySkeletonAsUnpackTarget(t *testing.T) {
	q := NewQuery(7, "dirty.example.", TypeHTTPS, true)
	bystander := q.Reply()
	wantQ, wantBystander := snapshot(q), snapshot(bystander)

	skel := q.Reply()
	skel.Answer = append(skel.Answer,
		RR{Name: "dirty.example.", Type: TypeHTTPS, Class: ClassINET, TTL: 300, Data: &SVCBData{Priority: 1, Target: "."}},
		RR{Name: "dirty.example.", Type: TypeA, Class: ClassINET, TTL: 60, Data: &AData{Addr: netip.MustParseAddr("192.0.2.7")}})
	if _, err := skel.Pack(); err != nil {
		t.Fatal(err)
	}

	other := &Message{ID: 99, Response: true, RCode: RCodeNXDomain,
		Question:  []Question{{Name: "unrelated.test.", Type: TypeAAAA, Class: ClassINET}},
		Authority: []RR{{Name: "test.", Type: TypeNS, Class: ClassINET, TTL: 5, Data: &NSData{Host: "ns.test."}}},
		Additional: []RR{{Name: ".", Type: TypeOPT, Class: 4096,
			Data: &OPTData{Options: []EDNSOption{{Code: 10, Data: []byte{1, 2, 3, 4, 5, 6, 7, 8}}}}}}}
	wire, err := other.Pack()
	if err != nil {
		t.Fatal(err)
	}
	want, err := Unpack(wire)
	if err != nil {
		t.Fatal(err)
	}
	if err := UnpackInto(skel, wire); err != nil {
		t.Fatal(err)
	}
	assertSameDecode(t, want, skel)
	if got := snapshot(q); !reflect.DeepEqual(got, wantQ) {
		t.Errorf("decoding into the reply changed its query:\n got %+v\nwant %+v", got, wantQ)
	}
	if got := snapshot(bystander); !reflect.DeepEqual(got, wantBystander) {
		t.Errorf("decoding into one reply changed another:\n got %+v\nwant %+v", got, wantBystander)
	}
}

// TestReleaseOwnsOnlyLiveSkeletons: Release takes back a message NewQuery
// or Reply built, once, and leaves it holding nothing (in race builds, only
// its poison); on a decoded message, a literal, a value copy or a second
// call it does nothing.
func TestReleaseOwnsOnlyLiveSkeletons(t *testing.T) {
	q := NewQuery(5, "release.example.", TypeHTTPS, true)
	wire, err := q.Pack()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := Unpack(wire)
	if err != nil {
		t.Fatal(err)
	}
	literal := &Message{ID: 5, Question: []Question{{Name: "release.example.", Type: TypeHTTPS, Class: ClassINET}}}
	copied := *q
	for what, m := range map[string]*Message{"decoded message": decoded, "literal": literal, "value copy": &copied} {
		want := snapshot(m)
		m.Release()
		if got := snapshot(m); !reflect.DeepEqual(got, want) {
			t.Errorf("Release changed a %s:\n got %+v\nwant %+v", what, got, want)
		}
	}
	if got, want := snapshot(q), snapshot(&copied); !reflect.DeepEqual(got, want) {
		t.Fatalf("releasing a value copy changed the skeleton it was copied from:\n got %+v\nwant %+v", got, want)
	}

	shared := []RR{{Name: "release.example.", Type: TypeA, Class: ClassINET, TTL: 60, Data: &AData{Addr: netip.MustParseAddr("192.0.2.9")}}}
	r := q.Reply()
	r.Answer, r.Authority = shared, shared
	r.Additional = append(r.Additional, shared...)
	bare := NewQuery(6, "bare.example.", TypeA, false)
	s, released := r.home, bare.home
	r.Release()
	bare.Release() // what any released skeleton holds: nothing, and in race builds only poison
	if !reflect.DeepEqual(*s, *released) || !testrace.Enabled && !reflect.ValueOf(*s).IsZero() {
		t.Errorf("a released skeleton holds %+v, want %+v", *s, *released)
	}
	if shared[0].Name != "release.example." || shared[0].Data.(*AData).Addr != netip.MustParseAddr("192.0.2.9") {
		t.Errorf("Release wrote through a section it carried: %+v", shared[0])
	}
	r.Release() // released already: must not pool the skeleton a second time
	a, b := NewQuery(1, "a.example.", TypeA, false), NewQuery(2, "b.example.", TypeA, false)
	if a.home == b.home || a.Question[0].Name != "a.example." || b.Question[0].Name != "b.example." {
		t.Errorf("a skeleton released twice was handed out twice: %+v, %+v", a, b)
	}
}

// TestReleasedReplyIsPoisonedUnderRace: under the race detector a reply
// read after Release says what no answer says — QR clear, an RCODE past
// the extended range, AD set, a question and OPT record under an invalid
// name, no sections — while the shared records it carried stay as they were.
func TestReleasedReplyIsPoisonedUnderRace(t *testing.T) {
	if !testrace.Enabled {
		t.Skip("replies are poisoned only under the race detector")
	}
	shared := []RR{{Name: "poison.example.", Type: TypeA, Class: ClassINET, TTL: 60, Data: &AData{Addr: netip.MustParseAddr("192.0.2.9")}}}
	want := snapshot(&Message{Answer: shared})
	r := NewQuery(4, "poison.example.", TypeA, true).Reply()
	r.RCode, r.Answer, r.Authority = RCodeNoError, shared, shared
	r.Release()
	if r.Response || r.RCode != 0xffff || !r.AuthenticatedData || r.Question[0].Name != poisonName ||
		r.Additional[0].Name != poisonName || r.Answer != nil || r.Authority != nil {
		t.Errorf("released reply not poisoned: %+v", r)
	}
	if got := snapshot(&Message{Answer: shared}); !reflect.DeepEqual(got, want) {
		t.Errorf("poisoning wrote through a section the reply carried: %+v", shared)
	}
	if q := NewQuery(5, "fresh.example.", TypeA, false); q.RCode != 0 || q.AuthenticatedData || q.Opcode != 0 {
		t.Errorf("a skeleton drawn after a release keeps its poison: %+v", q)
	}
}

// TestLiveSkeletonsNeverShare drives NewQuery, Reply, Release and UnpackInto
// into a skeleton in a seeded random order and checks after every step that
// no two live messages sit in one skeleton and that each still says exactly
// what it said when it was built or last decoded into.
func TestLiveSkeletonsNeverShare(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	type live struct {
		m    *Message
		want Message
	}
	var msgs []live
	add := func(m *Message) { msgs = append(msgs, live{m, snapshot(m)}) }
	name := func() string { return fmt.Sprintf("n%d.example.", rng.Intn(1000)) }
	for step := 0; step < 4000; step++ {
		switch op := rng.Intn(5); {
		case op == 0 || len(msgs) == 0:
			add(NewQuery(uint16(rng.Intn(1<<16)), name(), Type(1+rng.Intn(64)), rng.Intn(2) == 0))
		case op == 1:
			r := msgs[rng.Intn(len(msgs))].m.Reply()
			r.RCode = RCode(rng.Intn(6))
			r.Answer = append(r.Answer, RR{Name: name(), Type: TypeA, Class: ClassINET, TTL: uint32(step),
				Data: &AData{Addr: netip.AddrFrom4([4]byte{192, 0, 2, byte(step)})}})
			add(r)
		case op == 2:
			i := rng.Intn(len(msgs))
			other := &Message{ID: uint16(step), Response: true, RCode: RCodeNXDomain,
				Question:  []Question{{Name: name(), Type: TypeAAAA, Class: ClassINET}},
				Authority: []RR{{Name: "example.", Type: TypeNS, Class: ClassINET, TTL: uint32(step), Data: &NSData{Host: name()}}}}
			if rng.Intn(2) == 0 {
				other.SetEDNS0(1232, true)
			}
			wire, err := other.Pack()
			if err != nil {
				t.Fatal(err)
			}
			if err := UnpackInto(msgs[i].m, wire); err != nil {
				t.Fatal(err)
			}
			msgs[i].want = snapshot(msgs[i].m)
			assertSameDecode(t, other, msgs[i].m)
		default:
			i := rng.Intn(len(msgs))
			msgs[i].m.Release()
			msgs[i] = msgs[len(msgs)-1]
			msgs = msgs[:len(msgs)-1]
		}
		homes := map[*skeleton]bool{}
		for _, l := range msgs {
			if l.m.home == nil || &l.m.home.Message != l.m || homes[l.m.home] {
				t.Fatalf("step %d: a live message lost its skeleton or shares it: %+v", step, l.m)
			}
			homes[l.m.home] = true
			if got := snapshot(l.m); !reflect.DeepEqual(got, l.want) {
				t.Fatalf("step %d: a live message changed under another's build or release:\n got %+v\nwant %+v", step, got, l.want)
			}
		}
	}
}

// snapshot is a deep copy of everything a message says, RDATA included.
func snapshot(m *Message) Message {
	out := *m
	out.Question = append([]Question(nil), m.Question...)
	for _, sec := range []*[]RR{&out.Answer, &out.Authority, &out.Additional} {
		rrs := make([]RR, len(*sec))
		for i, rr := range *sec {
			rrs[i] = rr.Clone()
		}
		*sec = rrs
	}
	return out
}
