package resolver

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/dnswire"
)

// maxUpstreamPerResolve bounds the upstream queries one resolution of
// example.com/HTTPS sends, whatever example.com's server answers: the
// walk and its retry from the root, each at most maxDepth referrals deep,
// the validator's DNSKEY and DS fetches, and the glueless name-server
// lookups the referrals may ask for (maxGlueless). The authentic reply,
// validated, costs ten.
const maxUpstreamPerResolve = 160

// canonicalRRset is the set of rrs, each packed with its owner in
// canonical form and its TTL zeroed: what a signature covers.
func canonicalRRset(t testing.TB, rrs []dnswire.RR) []string {
	var set []string
	for _, rr := range rrs {
		rr.Name, rr.TTL = dnswire.CanonicalName(rr.Name), 0
		wire, err := dnswire.PackRR(nil, rr)
		if err != nil {
			t.Fatalf("packing %v: %v", rr, err)
		}
		set = append(set, string(wire))
	}
	slices.Sort(set)
	return slices.Compact(set)
}

// FuzzResolverUpstream puts fuzzed wire in the mouth of example.com.'s
// authoritative server: whatever decodes is its reply to the recursor's
// HTTPS query in the signed three-zone fixture, while the root and com.
// stay honest. Every resolution must hold that
//   - it does not panic;
//   - AD is set only on an answer whose HTTPS RRset is the authentic signed
//     one;
//   - it sends at most maxUpstreamPerResolve upstream queries;
//   - a reply that does not answer the query (another ID or question, or
//     truncated) leaves nothing cached under that query's question.
//
// The corpus seeds are the authentic reply, the three wrong kinds, and a
// referral naming 200 name servers without glue, of which the recursor
// may chase only maxGlueless.
func FuzzResolverUpstream(f *testing.F) {
	w := buildWorld(f, true, true)
	q := w.resolver.queries.query("example.com.", dnswire.TypeHTTPS)
	authentic, _, ok := w.exZone.Lookup("example.com.", dnswire.TypeHTTPS)
	if !ok {
		f.Fatal("the fixture has no HTTPS RRset at example.com.")
	}
	want := canonicalRRset(f, authentic)
	for _, mutate := range []func(*dnswire.Message){
		func(*dnswire.Message) {},
		func(m *dnswire.Message) { m.Question[0].Name = "evil.example." },
		func(m *dnswire.Message) { m.ID ^= 0x5555 },
		func(m *dnswire.Message) { m.Truncated = true },
		func(m *dnswire.Message) {
			m.Answer, m.Authoritative = nil, false
			for i := range 200 {
				m.Authority = append(m.Authority, nsRR("example.com.", fmt.Sprintf("ns%d.evil.test.", i)))
			}
		},
	} {
		m := w.exSrv.HandleDNS(q)
		mutate(m)
		wire, err := m.Pack()
		if err != nil {
			f.Fatal(err)
		}
		m.Release()
		f.Add(wire)
	}
	var served []byte // the current input, once it decodes
	w.net.RegisterDNS(w.exAddr, &onPath{inner: w.exSrv, mutate: func(m *dnswire.Message) {
		if m.Question[0] == q.Question[0] {
			// A fresh decode for every ask: the recursor keeps what it is
			// sent. It cannot fail, the input decoded once already.
			*m = dnswire.Message{}
			_ = dnswire.UnpackInto(m, served)
		}
	}})
	f.Fuzz(func(t *testing.T, wire []byte) {
		var reply dnswire.Message
		if dnswire.UnpackInto(&reply, wire) != nil {
			return
		}
		served = wire
		w.resolver.FlushCache()
		before := w.net.QueryCount()
		res, err := w.resolver.Resolve("example.com.", dnswire.TypeHTTPS)
		if n := w.net.QueryCount() - before; n > maxUpstreamPerResolve {
			t.Fatalf("one resolution sent %d upstream queries, want at most %d", n, maxUpstreamPerResolve)
		}
		if err == nil && res.AuthenticatedData {
			var https []dnswire.RR
			for _, rr := range res.Answer {
				if rr.Type == dnswire.TypeHTTPS {
					https = append(https, rr)
				}
			}
			if got := canonicalRRset(t, https); !slices.Equal(got, want) {
				t.Fatalf("AD set on HTTPS RRset %v, not the authentic %v", https, authentic)
			}
		}
		if reply.Truncated || !reply.Answers(q) {
			if e, ok := w.resolver.cached("example.com.", dnswire.TypeHTTPS); ok {
				t.Fatalf("cached %v from a reply that does not answer the query", e.answer)
			}
		}
	})
}
