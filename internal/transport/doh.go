package transport

import (
	"net/netip"
	"sync"

	"repro/internal/dnswire"
	"repro/internal/obs"
	"repro/internal/simnet"
)

// dohScratch is the per-request server-side scratch: the decoded query
// message and the GET-parameter decode buffer. A DoH exchange is fully
// synchronous, so the scratch is released before exchangeDoH
// returns.
type dohScratch struct {
	q   dnswire.Message
	buf []byte
}

var dohScratchPool = sync.Pool{New: func() any { return new(dohScratch) }}

// exchangeDoH is the RFC 8484 server side of a DoH frontend: it decodes
// the request envelope, resolves, and re-encodes into resp. A hard
// upstream failure with nothing stale becomes a 502 — DoH is the one
// envelope with a status channel distinct from the DNS RCode. The request
// decodes into pooled server scratch and the answer wire is appended into
// resp's existing Body capacity, so a warm client/server pair exchanges
// with no envelope allocations; all other resp fields are overwritten.
// Server-side spans are recorded onto tr (a nil tr traces nothing).
func (f *Frontend) exchangeDoH(req *DoHRequest, resp *DoHResponse, tr *obs.Trace) {
	body := resp.Body[:0]
	sc := dohScratchPool.Get().(*dohScratch)
	defer func() {
		sc.buf = dnswire.TrimRecycled(sc.buf)
		dohScratchPool.Put(sc)
	}()
	buf, status, err := DecodeDoHRequestInto(&sc.q, req, sc.buf[:0])
	sc.buf = buf
	if err != nil {
		*resp = DoHResponse{Status: status, Body: body}
		return
	}
	ans, err := f.Resolve(&sc.q, body, tr)
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

// dohSession is a client's RFC 8484 GET session: each Exchange is one
// envelope, after the reachability check a DoT connection makes too. DoH
// keeps no connection state here, so a dial costs no setup round-trip.
type dohSession struct {
	fe  *Frontend
	net *simnet.Network
	ap  netip.AddrPort
}

// answeredError is a DoH exchange the frontend answered without a usable
// answer — a non-200 status or an undecodable body. Unlike a dead
// session's error, it cost a round-trip.
type answeredError struct {
	error
	status int
}

func (e *answeredError) Unwrap() error { return e.error }

// dialScratch is a GET exchange's client-side working set: the request's
// DNSParam aliases buf, which the synchronous exchangeDoH permits, and the
// response's Body is the buffer the server appends the answer wire into.
type dialScratch struct {
	req  DoHRequest
	resp DoHResponse
	buf  []byte
}

var dialScratchPool = sync.Pool{New: func() any { return new(dialScratch) }}

func (s *dohSession) Exchange(q, into *dnswire.Message, tr *obs.Trace) (bool, error) {
	if _, err := s.net.Service(s.ap); err != nil {
		return false, err
	}
	ds := dialScratchPool.Get().(*dialScratch)
	defer func() {
		ds.buf = dnswire.TrimRecycled(ds.buf)
		ds.resp.Body = dnswire.TrimRecycled(ds.resp.Body)
		dialScratchPool.Put(ds)
	}()
	param, buf, err := dnswire.AppendEncodeDoHParam(q, ds.buf)
	ds.buf = buf
	if err != nil {
		return false, err
	}
	ds.req = DoHRequest{Method: "GET", Path: DoHPath, DNSParam: param}
	s.fe.exchangeDoH(&ds.req, &ds.resp, tr)
	if err := ds.resp.DecodeInto(into); err != nil {
		return false, &answeredError{err, ds.resp.Status}
	}
	return ds.resp.Stale, nil
}
