package resolver

import (
	"errors"
	"fmt"
	"net/netip"
	"runtime/debug"
	"slices"
	"testing"
	"time"

	"repro/internal/authserver"
	"repro/internal/dnssec"
	"repro/internal/dnswire"
	"repro/internal/simnet"
	"repro/internal/zone"
)

// onPath rewrites the answers of one authoritative server, the way an
// attacker between the recursor and the zone would.
type onPath struct {
	inner  simnet.DNSHandler
	mutate func(*dnswire.Message) // nil: pass through
}

func (p *onPath) HandleDNS(q *dnswire.Message) *dnswire.Message {
	resp := p.inner.HandleDNS(q)
	if p.mutate != nil {
		p.mutate(resp)
	}
	return resp
}

// TestHostileAnswersNeverGetAD primes the recursor with a secure
// resolution of the HTTPS RRset (its signatures are in dnssec's process
// memo from the moment the zone made them), then serves it the same
// signatures outside their validity window, with a flipped byte, over
// changed RDATA, or stripped. AD must be clear every time, and the
// untouched RRset must validate again afterwards. The recursor checks
// signatures through the memo; in the "memo nil" legs a validator with no
// memo, which verifies every signature in full, reads the records the
// recursor holds after each resolution and must agree with its AD bit.
func TestHostileAnswersNeverGetAD(t *testing.T) {
	flipSig := func(m *dnswire.Message) {
		for i, rr := range m.Answer {
			if sig, ok := rr.Data.(*dnswire.RRSIGData); ok && sig.TypeCovered == dnswire.TypeHTTPS {
				forged := rr.Clone()
				forged.Data.(*dnswire.RRSIGData).SignatureBytes()[5] ^= 0x10
				m.Answer[i] = forged
			}
		}
	}
	swapRData := func(m *dnswire.Message) {
		for i, rr := range m.Answer {
			if rr.Type == dnswire.TypeHTTPS {
				m.Answer[i].Data = &dnswire.SVCBData{Priority: 1, Target: "evil.example."}
			}
		}
	}
	stripSigs := func(m *dnswire.Message) {
		m.Answer = slices.DeleteFunc(m.Answer, func(rr dnswire.RR) bool { return rr.Type == dnswire.TypeRRSIG })
	}
	cases := []struct {
		name   string
		shift  time.Duration // moves the clock from the priming instant
		mutate func(*dnswire.Message)
	}{
		{"past expiration", 91 * 24 * time.Hour, nil},
		{"before inception", -2 * time.Hour, nil},
		{"flipped signature byte", 0, flipSig},
		{"rdata changed under unchanged RRSIG", 0, swapRData},
		{"signatures stripped inside a signed zone", 0, stripSigs},
	}
	for _, tc := range cases {
		for _, withMemo := range []bool{true, false} {
			name := tc.name + "/memo nil"
			if withMemo {
				name = tc.name + "/memo set"
			}
			t.Run(name, func(t *testing.T) {
				w := buildWorld(t, true, true)
				attacker := &onPath{inner: w.exSrv}
				w.net.RegisterDNS(w.exAddr, attacker)
				resolve := func() *Response {
					res := w.mustResolve(t, "example.com.", dnswire.TypeHTTPS)
					if !withMemo {
						v := dnssec.NewValidator(w.resolver, w.resolver.Anchor, w.clock.Now())
						if got, err := v.Validate("example.com.", dnswire.TypeHTTPS); (got == dnssec.Secure) != res.AuthenticatedData {
							t.Errorf("memo-less validator: %v (%v); recursor's AD bit: %v", got, err, res.AuthenticatedData)
						}
					}
					return res
				}
				start := w.clock.Now()
				if res := resolve(); !res.AuthenticatedData {
					t.Fatal("priming resolution is not secure")
				}

				w.resolver.FlushCache() // forget the answers, keep the memo
				w.clock.Set(start.Add(tc.shift))
				attacker.mutate = tc.mutate
				res := resolve()
				if res.AuthenticatedData {
					t.Error("AD set on a hostile answer")
				}
				if len(res.Answer) == 0 {
					t.Error("bogus data must still be returned, only without AD")
				}

				w.resolver.FlushCache()
				w.clock.Set(start)
				attacker.mutate = nil
				if res := resolve(); !res.AuthenticatedData {
					t.Error("the untouched RRset no longer validates after the hostile one")
				}
			})
		}
	}
}

// TestReplyToAnotherQueryIsNeitherReturnedNorCached puts an on-path
// mutator in front of example.com's server that hands back a hostile
// HTTPS record in a reply to some other query — another question, another
// ID — or in a truncated one. None of them answers the recursor's query:
// the resolution fails as if the server had refused, nothing is cached,
// and once the mutator steps aside the genuine record resolves.
func TestReplyToAnotherQueryIsNeitherReturnedNorCached(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*dnswire.Message)
	}{
		{"other question", func(m *dnswire.Message) { m.Question[0].Name = "evil.example." }},
		{"other ID", func(m *dnswire.Message) { m.ID ^= 0x5555 }},
		{"truncated", func(m *dnswire.Message) { m.Truncated = true }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := buildWorld(t, false, false)
			attacker := &onPath{inner: w.exSrv, mutate: func(m *dnswire.Message) {
				for i, rr := range m.Answer {
					if rr.Type == dnswire.TypeHTTPS {
						m.Answer[i].Data = &dnswire.SVCBData{Priority: 1, Target: "evil.example."}
					}
				}
				tc.mutate(m)
			}}
			w.net.RegisterDNS(w.exAddr, attacker)
			if res, err := w.resolver.Resolve("example.com.", dnswire.TypeHTTPS); !errors.Is(err, ErrServFail) {
				t.Fatalf("Resolve = %+v, %v; want ErrServFail", res, err)
			}
			if e, ok := w.resolver.cached("example.com.", dnswire.TypeHTTPS); ok {
				t.Fatalf("cached %+v from a reply to another query", e.rrs())
			}
			attacker.mutate = nil
			res := w.mustResolve(t, "example.com.", dnswire.TypeHTTPS)
			if len(res.Answer) != 1 || res.Answer[0].Data.(*dnswire.SVCBData).Target != "." {
				t.Errorf("after the mutator left: %+v", res.Answer)
			}
		})
	}
}

// TestGluelessDelegationCycleEnds delegates a.test to five name servers
// under b.test and b.test to five under a.test, none with glue: resolving
// a name under either needs the other's servers first. The resolution must
// fail after the glueless lookups maxGlueless allows, 3 at the top, 2 in
// each of those, 1 below, each after one upstream query: 1 + 3·(1 + 2·(1
// + 1·1)) = 16 queries, not recurse until the stack runs out (capped here
// so that a regression fails fast).
func TestGluelessDelegationCycleEnds(t *testing.T) {
	defer debug.SetMaxStack(debug.SetMaxStack(64 << 20))
	clock := simnet.NewClock(time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC))
	n := simnet.New(clock)
	rootAddr := netip.MustParseAddr("198.41.0.4")
	root := zone.New(".")
	root.SetSOA("a.root-servers.net.", "nstld.verisign-grs.com.", 1, 300)
	root.Add(nsRR(".", "a.root-servers.net."))
	root.Add(aRR("a.root-servers.net.", rootAddr.String(), 3600))
	for i := range 5 {
		root.Add(nsRR("a.test.", fmt.Sprintf("ns%d.b.test.", i)))
		root.Add(nsRR("b.test.", fmt.Sprintf("ns%d.a.test.", i)))
	}
	srv := authserver.New()
	srv.AddZone(root)
	n.RegisterDNS(rootAddr, srv)
	n.SetRootServers([]netip.Addr{rootAddr})

	if res, err := New(n).Resolve("www.a.test.", dnswire.TypeA); !errors.Is(err, ErrServFail) {
		t.Fatalf("Resolve = %+v, %v; want ErrServFail", res, err)
	}
	if got := n.QueryCount(); got != 16 {
		t.Errorf("%d upstream queries, want 16", got)
	}
}
