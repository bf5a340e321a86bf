package resolver

import (
	"slices"
	"testing"
	"time"

	"repro/internal/dnswire"
	"repro/internal/simnet"
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

// TestHostileAnswersNeverGetAD primes the recursor — and, when it has one,
// its verified-signature memo — with a secure resolution of the HTTPS
// RRset, then serves it the same signatures outside their validity window,
// with a flipped byte, over changed RDATA, or stripped. AD must be clear every time,
// identically with the memo set and nil, and the untouched RRset must
// validate again afterwards.
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
				if !withMemo {
					w.resolver.memo = nil
				}
				start := w.clock.Now()
				if res := w.mustResolve(t, "example.com.", dnswire.TypeHTTPS); !res.AuthenticatedData {
					t.Fatal("priming resolution is not secure")
				}

				w.resolver.FlushCache() // forget the answers, keep the memo
				w.clock.Set(start.Add(tc.shift))
				attacker.mutate = tc.mutate
				res := w.mustResolve(t, "example.com.", dnswire.TypeHTTPS)
				if res.AuthenticatedData {
					t.Error("AD set on a hostile answer")
				}
				if len(res.Answer) == 0 {
					t.Error("bogus data must still be returned, only without AD")
				}

				w.resolver.FlushCache()
				w.clock.Set(start)
				attacker.mutate = nil
				if res := w.mustResolve(t, "example.com.", dnswire.TypeHTTPS); !res.AuthenticatedData {
					t.Error("the untouched RRset no longer validates after the hostile one")
				}
			})
		}
	}
}
