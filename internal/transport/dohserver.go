package transport

import (
	"net/netip"
	"sync"
	"time"

	"repro/internal/dnswire"
	"repro/internal/obs"
	"repro/internal/simnet"
)

// DoHServer is the RFC 8484 envelope over a Frontend: it terminates DoH
// request envelopes at a simnet addr:port, decodes them, resolves
// through the shared engine, and re-encodes. It implements DoHExchanger,
// which is how the Client reaches it after the addr:port service lookup.
type DoHServer struct {
	Frontend
}

// NewDoHServer builds a DoH frontend over the handler.
func NewDoHServer(name string, handler simnet.DNSHandler, cache *Cache, cooldown time.Duration) *DoHServer {
	return &DoHServer{Frontend: Frontend{
		Name: name, Proto: ProtoDoH, Handler: handler,
		Cache: cache, FailureCooldown: cooldown,
	}}
}

// Register attaches the frontend to the network at ap.
func (s *DoHServer) Register(n *simnet.Network, ap netip.AddrPort) {
	n.RegisterService(ap, s)
}

// dohScratch is the per-request server-side scratch: the decoded query
// message and the GET-parameter decode buffer. A DoH exchange is fully
// synchronous, so the scratch is released before ExchangeDoH
// returns.
type dohScratch struct {
	q   dnswire.Message
	buf []byte
}

var dohScratchPool = sync.Pool{New: func() any { return new(dohScratch) }}

// ExchangeDoH implements DoHExchanger: decode the envelope, resolve, and
// re-encode into resp. A hard upstream failure with nothing stale becomes
// a 502 — DoH is the one envelope with a status channel distinct from
// the DNS RCode.
func (s *DoHServer) ExchangeDoH(req *DoHRequest, resp *DoHResponse, tr *obs.Trace) {
	body := resp.Body[:0]
	sc := dohScratchPool.Get().(*dohScratch)
	defer func() {
		sc.buf = trimRecycledBuf(sc.buf)
		dohScratchPool.Put(sc)
	}()
	buf, status, err := DecodeDoHRequestInto(&sc.q, req, sc.buf[:0])
	sc.buf = buf
	if err != nil {
		*resp = DoHResponse{Status: status, Body: body}
		return
	}
	ans, err := s.Resolve(&sc.q, body, tr)
	if err != nil {
		*resp = DoHResponse{Status: StatusServFailUpstream}
		return
	}
	*resp = DoHResponse{
		Status:      StatusOK,
		ContentType: dnswire.MediaTypeDNSMessage,
		Body:        ans.Wire,
		MaxAge:      ans.MaxAge,
		Stale:       ans.Stale,
	}
}
