// Package authserver is an in-memory authoritative DNS server over zone
// stores, served through simnet: it selects the longest-matching zone for
// each question, applies authoritative answer/referral semantics, and
// honours EDNS(0) and the DO bit — the role BIND9 plays in the paper's
// testbed. It serves the world's root zone, the browser lab's zones and the
// benchmark's root-zone probe; it opens no sockets.
package authserver

import (
	"sync"

	"repro/internal/dnswire"
	"repro/internal/zone"
)

// Server is an authoritative DNS server hosting one or more zones.
type Server struct {
	mu    sync.RWMutex
	zones map[string]*zone.Zone
	// RefuseAll simulates a server that is up but refuses service.
	RefuseAll bool
}

// New creates an empty authoritative server.
func New() *Server {
	return &Server{zones: map[string]*zone.Zone{}}
}

// AddZone attaches a zone to the server.
func (s *Server) AddZone(z *zone.Zone) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.zones[z.Origin] = z
}

// findZone returns the hosted zone with the longest suffix match for name.
func (s *Server) findZone(name string) *zone.Zone {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var best *zone.Zone
	bestLabels := -1
	for origin, z := range s.zones {
		if dnswire.IsSubdomain(name, origin) {
			if n := dnswire.CountLabels(origin); n > bestLabels {
				best, bestLabels = z, n
			}
		}
	}
	return best
}

// HandleDNS implements simnet.DNSHandler with authoritative semantics.
func (s *Server) HandleDNS(q *dnswire.Message) *dnswire.Message {
	resp := q.Reply()
	if len(q.Question) != 1 {
		resp.RCode = dnswire.RCodeFormErr
		return resp
	}
	question := q.Question[0]
	if s.RefuseAll {
		resp.RCode = dnswire.RCodeRefused
		return resp
	}
	z := s.findZone(question.Name)
	if z == nil {
		resp.RCode = dnswire.RCodeRefused
		return resp
	}
	res := z.Query(question.Name, question.Type, q.DNSSECOK())
	resp.RCode = res.RCode
	resp.Answer = res.Answer
	resp.Authority = res.Authority
	resp.Additional = append(res.Additional, resp.Additional...)
	resp.Authoritative = !res.Referral
	return resp
}
