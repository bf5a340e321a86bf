package transport

import (
	"fmt"
	"testing"

	"repro/internal/dnswire"
)

func TestMixAssignDistributionAndDeterminism(t *testing.T) {
	m := Mix{DoH: 2, DoT: 1, DoQ: 1}
	got := m.Assign(4)
	want := []Protocol{ProtoDoH, ProtoDoT, ProtoDoQ, ProtoDoH}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Assign(4) = %v, want %v", got, want)
		}
	}
	// Counts follow the weights over larger fleets, and the assignment is
	// a pure function of (mix, n) — per-day replicas recompute it.
	counts := map[Protocol]int{}
	for _, p := range m.Assign(100) {
		counts[p]++
	}
	if counts[ProtoDoH] != 50 || counts[ProtoDoT] != 25 || counts[ProtoDoQ] != 25 {
		t.Errorf("Assign(100) counts = %v, want 50/25/25", counts)
	}
	again := m.Assign(100)
	for i, p := range m.Assign(100) {
		if again[i] != p {
			t.Fatal("Assign is not deterministic")
		}
	}
	// The zero mix is all-DoH (the pre-transport default).
	for _, p := range (Mix{}).Assign(5) {
		if p != ProtoDoH {
			t.Fatalf("zero mix assigned %v", p)
		}
	}
	// One Period of the deal repeats for ever.
	for _, m := range []Mix{{}, {DoH: 2, DoT: 1, DoQ: 1}, {DoH: 60, DoT: 30, DoQ: 10}, {DoT: 3, DoQ: -1}, {DoH: 1, DoT: 6, DoQ: 2}} {
		cycle, long := m.Assign(m.Period()), m.Assign(5*m.Period()+3)
		for i, p := range long {
			if p != cycle[i%len(cycle)] {
				t.Fatalf("%+v: Assign pick %d is %v, want the cycle's %v", m, i, p, cycle[i%len(cycle)])
			}
		}
	}
}

func TestParseMixAndString(t *testing.T) {
	cases := []struct {
		in   string
		want Mix
	}{
		{"", Mix{DoH: 1}},
		{"doh", Mix{DoH: 1}},
		{"dot", Mix{DoT: 1}},
		{"doq", Mix{DoQ: 1}},
		{"mixed", Mix{DoH: 2, DoT: 1, DoQ: 1}},
		{"doh=60,dot=30,doq=10", Mix{DoH: 60, DoT: 30, DoQ: 10}},
		{"dot=3,doq=1", Mix{DoT: 3, DoQ: 1}},
	}
	for _, tc := range cases {
		got, err := ParseMix(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseMix(%q) = %+v, %v; want %+v", tc.in, got, err, tc.want)
		}
	}
	for _, bad := range []string{"dnscrypt", "doh=x", "doh=0,dot=0", "doh:1"} {
		if _, err := ParseMix(bad); err == nil {
			t.Errorf("ParseMix(%q) accepted", bad)
		}
	}
	if s := (Mix{DoH: 2, DoT: 1, DoQ: 1}).String(); s != "doh=2,dot=1,doq=1" {
		t.Errorf("String() = %q", s)
	}
	if s := (Mix{}).String(); s != "doh" {
		t.Errorf("zero mix String() = %q, want doh", s)
	}
}

func TestProtocolParseAndPorts(t *testing.T) {
	// A protocol's name is the flag value that selects it alone.
	for _, p := range []Protocol{ProtoDoH, ProtoDoT, ProtoDoQ} {
		m, err := ParseMix(p.String())
		if err != nil || m.Period() != 1 || m.Weight(p) != 1 {
			t.Errorf("ParseMix(%q) = %+v, %v; want %v alone", p.String(), m, err, p)
		}
	}
	if ProtoDoH.Port() != 443 || ProtoDoT.Port() != 853 || ProtoDoQ.Port() != 853 {
		t.Error("conventional ports wrong")
	}
}

// TestMixedFleetFailsOverAcrossProtocols: a mixed fleet is one failover
// domain — when the DoH and DoT members die, queries ride the DoQ
// member, and the shared cache keeps serving whatever any protocol
// fetched.
func TestMixedFleetFailsOverAcrossProtocols(t *testing.T) {
	client, fl, recursor, net, _ := newTestFleet(t, 3, BalanceRoundRobin,
		ProtoDoH, ProtoDoT, ProtoDoQ)
	for i := 0; i < 6; i++ {
		if _, err := client.Query(fmt.Sprintf("warm%d.test", i), dnswire.TypeA, false); err != nil {
			t.Fatal(err)
		}
	}
	// One frontend per protocol, so each frontend's count is its protocol's.
	for _, fe := range fl.Frontends {
		if st := fe.Stats(); st.Served != 2 {
			t.Errorf("%s served %d, want 2 (round-robin over the mix)", st.Proto, st.Served)
		}
	}

	net.SetAddrDown(fl.Addrs[0].Addr(), true) // doh
	net.SetAddrDown(fl.Addrs[1].Addr(), true) // dot
	before := recursor.queries
	for i := 0; i < 3; i++ {
		if _, err := client.Query(fmt.Sprintf("fo%d.test", i), dnswire.TypeA, false); err != nil {
			t.Fatalf("query %d failed with a healthy DoQ member: %v", i, err)
		}
	}
	if recursor.queries != before+3 {
		t.Errorf("recursor saw %d new queries, want 3", recursor.queries-before)
	}
	// Cache entries fetched through DoQ serve later DoH hits once the
	// fleet heals: the cache sits below the envelopes.
	net.SetAddrDown(fl.Addrs[0].Addr(), false)
	net.SetAddrDown(fl.Addrs[1].Addr(), false)
	fl.Pool.clock.Advance(DefaultCooldown + 1)
	before = recursor.queries
	for i := 0; i < 3; i++ {
		if _, err := client.Query(fmt.Sprintf("fo%d.test", i), dnswire.TypeA, false); err != nil {
			t.Fatal(err)
		}
	}
	if recursor.queries != before {
		t.Errorf("cross-protocol cache hits leaked %d queries upstream", recursor.queries-before)
	}
}
