package transport

import (
	"fmt"
	"strconv"
	"strings"
)

// Protocol identifies one encrypted-DNS envelope. All three share the
// Fleet's cache/pool/failover machinery; they differ only in how a query
// and its answer travel between stub and frontend.
type Protocol int

const (
	// ProtoDoH is DNS over HTTPS (RFC 8484): one request/response envelope
	// per query, GET (base64url dns parameter) or POST (raw wire format).
	ProtoDoH Protocol = iota
	// ProtoDoT is DNS over TLS (RFC 7858): 2-byte length-prefixed frames
	// over a persistent connection, one whole frame per query and one per
	// answer.
	ProtoDoT
	// ProtoDoQ is DNS over QUIC (RFC 9250): one stream per query over a
	// session, message ID pinned to zero on the wire, connection setup and
	// 0-RTT resumption latencies charged to the virtual clock.
	ProtoDoQ
)

// ProtoAny is the no-preference sentinel for preference-aware candidate
// orderings (Pool.candidates, Client.ExchangePreferring):
// the pool's failover order is used as-is.
const ProtoAny Protocol = -1

// String names the protocol for flags, frontend names, and stats output.
func (p Protocol) String() string {
	switch p {
	case ProtoDoH:
		return "doh"
	case ProtoDoT:
		return "dot"
	case ProtoDoQ:
		return "doq"
	default:
		return fmt.Sprintf("protocol(%d)", int(p))
	}
}

// Port returns the protocol's conventional serving port: 443 for DoH,
// 853 for DoT (RFC 7858 §3.1) and DoQ (RFC 9250 §4.1.1).
func (p Protocol) Port() uint16 {
	if p == ProtoDoH {
		return 443
	}
	return 853
}

// Mix is a per-campaign protocol mix: relative weights for how many
// frontends of a fleet speak each protocol. The zero value means all-DoH
// (the pre-transport behavior). Weights are relative, not percentages:
// {DoH: 60, DoT: 30, DoQ: 10} and {DoH: 6, DoT: 3, DoQ: 1} are the same
// mix.
type Mix struct {
	DoH, DoT, DoQ int
}

// normalized returns the mix with the all-zero default resolved to
// all-DoH and negative weights clamped to zero.
func (m Mix) normalized() Mix {
	if m.DoH < 0 {
		m.DoH = 0
	}
	if m.DoT < 0 {
		m.DoT = 0
	}
	if m.DoQ < 0 {
		m.DoQ = 0
	}
	if m.DoH == 0 && m.DoT == 0 && m.DoQ == 0 {
		m.DoH = 1
	}
	return m
}

// weight returns the weight for one protocol.
func (m Mix) weight(p Protocol) int {
	switch p {
	case ProtoDoH:
		return m.DoH
	case ProtoDoT:
		return m.DoT
	default:
		return m.DoQ
	}
}

// Assign deals protocols to n frontends by smooth weighted round-robin:
// each step every protocol gains its weight of credit and the richest one
// (ties broken doh < dot < doq) is picked and debited the total. The
// result is deterministic and interleaved — {DoH:2, DoT:1, DoQ:1} over
// four frontends yields doh, dot, doq, doh — so per-day fleet replicas
// recompute the identical assignment.
func (m Mix) Assign(n int) []Protocol {
	m = m.normalized()
	weights := [3]int{m.DoH, m.DoT, m.DoQ}
	total := weights[0] + weights[1] + weights[2]
	var credit [3]int
	out := make([]Protocol, n)
	for i := range out {
		best := -1
		for p := 0; p < 3; p++ {
			if weights[p] == 0 {
				continue
			}
			credit[p] += weights[p]
			if best < 0 || credit[p] > credit[best] {
				best = p
			}
		}
		credit[best] -= total
		out[i] = Protocol(best)
	}
	return out
}

// Period is the length of Assign's cycle: each Period consecutive picks
// deal every protocol exactly its weight and return every credit to zero,
// so Assign(n)[i] == Assign(Period())[i%Period()] for any n.
func (m Mix) Period() int {
	m = m.normalized()
	return m.DoH + m.DoT + m.DoQ
}

// String renders the mix in ParseMix form ("doh=2,dot=1,doq=1"), omitting
// zero-weight protocols; the all-DoH default renders as "doh". It tags
// bench reports so baselines are only compared against runs with the same
// protocol mix.
func (m Mix) String() string {
	m = m.normalized()
	var parts []string
	for _, p := range []Protocol{ProtoDoH, ProtoDoT, ProtoDoQ} {
		if w := m.weight(p); w > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", p, w))
		}
	}
	if len(parts) == 1 {
		return strings.SplitN(parts[0], "=", 2)[0]
	}
	return strings.Join(parts, ",")
}

// ParseMix resolves a flag value to a Mix. Accepted forms: a single
// protocol name ("doh", "dot", "doq"), the shorthand "mixed" (2:1:1), or
// explicit weights ("doh=60,dot=30,doq=10"; omitted protocols weigh 0).
func ParseMix(s string) (Mix, error) {
	switch s {
	case "", "doh":
		return Mix{DoH: 1}, nil
	case "dot":
		return Mix{DoT: 1}, nil
	case "doq":
		return Mix{DoQ: 1}, nil
	case "mixed":
		return Mix{DoH: 2, DoT: 1, DoQ: 1}, nil
	}
	var m Mix
	for _, part := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(part, "=")
		if !ok {
			return Mix{}, fmt.Errorf("transport: bad mix element %q (want proto=weight)", part)
		}
		w, err := strconv.Atoi(val)
		if err != nil || w < 0 {
			return Mix{}, fmt.Errorf("transport: bad mix weight %q", part)
		}
		switch name {
		case "doh":
			m.DoH = w
		case "dot":
			m.DoT = w
		case "doq":
			m.DoQ = w
		default:
			return Mix{}, fmt.Errorf("transport: unknown protocol %q in mix", name)
		}
	}
	if m.DoH+m.DoT+m.DoQ == 0 {
		return Mix{}, fmt.Errorf("transport: mix %q has no positive weight", s)
	}
	return m, nil
}
