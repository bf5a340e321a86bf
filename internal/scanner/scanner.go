// Package scanner implements the paper's measurement framework (§4.1): the
// daily HTTPS/A/AAAA/SOA/NS scans of the Tranco lists through public
// resolvers (primary Google, backup Cloudflare), CNAME-chasing HTTPS
// re-queries, RRSIG and AD-bit collection, name-server address + WHOIS
// scans, the hourly ECH rotation scans, and the TLS connectivity probes for
// domains with mismatched IP hints.
//
// A scan keeps nothing of an answer but interned values (dnswire.Interner:
// address and name lists, alpn and hint values, HTTPS record sets, ECH
// public names), so a value seen before costs no allocation and all its
// observations share one read-only copy. It hands every answer back as
// soon as it has read it: to a Transport that offers Recycle, or, having
// asked a recursor directly, with Release (a handler's reply is its
// caller's). Its own query message follows when the scan is over. The ech
// parameter is read in place (readECH, over ech.SelectInPlace).
package scanner

import (
	"fmt"
	"maps"
	"net/netip"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/dnswire"
	"repro/internal/ech"
	"repro/internal/simnet"
	"repro/internal/svcb"
	"repro/internal/whois"
)

// Prober performs a TLS reachability check toward addr for a domain
// (implemented by the providers world; an OpenSSL s_client in the paper).
type Prober interface {
	ProbeTLS(apex string, addr netip.Addr) error
}

// Transport sends one stub query through an alternative serving layer
// (e.g. a DoH upstream pool) instead of bare simnet resolver queries.
// Implementations handle their own failover across upstreams.
type Transport interface {
	Exchange(q *dnswire.Message) (*dnswire.Message, error)
}

// Scanner drives the measurement queries.
type Scanner struct {
	Net *simnet.Network
	// Primary and Backup are the public resolvers (8.8.8.8 and 1.1.1.1
	// in the paper).
	Primary netip.Addr
	Backup  netip.Addr
	// Transport, when non-nil, replaces the Primary/Backup stub queries:
	// every scan query goes through it (the encrypted-DNS path, with the
	// public resolvers as members of the transport's upstream pool).
	Transport Transport
	// Whois resolves name-server operators.
	Whois *whois.DB
	// Concurrency bounds parallel domain scans (the paper paces its
	// scans for ethics; here it bounds simulation goroutines).
	Concurrency int

	// qid is the query-ID stream. Atomic, not mutex-guarded: every query
	// of every worker draws from it, so a mutex here serializes the whole
	// scan fan-out.
	qid atomic.Uint32
}

// New creates a scanner using the given resolvers.
func New(net *simnet.Network, primary, backup netip.Addr, db *whois.DB) *Scanner {
	return &Scanner{Net: net, Primary: primary, Backup: backup, Whois: db, Concurrency: 8}
}

// Fork returns a scanner with the same resolvers, WHOIS database, and
// concurrency bound, but running over the given network view, with the
// given transport (nil for bare stub queries) and its own query-ID stream.
// Per-day scan contexts fork the campaign scanner so concurrent days never
// share mutable scanner state.
func (s *Scanner) Fork(net *simnet.Network, transport Transport) *Scanner {
	return &Scanner{
		Net: net, Primary: s.Primary, Backup: s.Backup,
		Transport: transport, Whois: s.Whois, Concurrency: s.Concurrency,
	}
}

// The tables a scan interns its stored values in, besides dnswire's
// address and name lists.
var (
	alpnLists        dnswire.Interner[[]string]
	v4Hints, v6Hints dnswire.Interner[[]netip.Addr]
	httpsSets        dnswire.Interner[[]dataset.HTTPSRecord]
	publicNames      dnswire.Interner[string]
)

func (s *Scanner) nextID() uint16 {
	return uint16(s.qid.Add(1))
}

// ForEach runs fn for every index in [0, n) on a bounded pool of workers
// goroutines (1 runs inline). Callers write results into per-index slots,
// so output order is deterministic regardless of scheduling. It is the one
// fan-out primitive every parallel measurement loop shares — the
// per-domain list scan, NS/ECH/probe passes, the validation census, and
// the campaign's day pipeline.
func ForEach(n, workers int, fn func(i int)) {
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// forEach runs fn over [0, n) on the scanner's own concurrency bound.
func (s *Scanner) forEach(n int, fn func(i int)) {
	ForEach(n, s.Concurrency, fn)
}

// recycler is the optional way home for an answer the scanner has finished
// reading (*transport.Client implements it).
type recycler interface{ Recycle(m *dnswire.Message) }

// done hands back an answer whose values have been copied out; it must not
// be read afterwards. A recursor's own reply is released; a transport's
// answer goes to its Recycle, and without one to the garbage collector.
func (s *Scanner) done(m *dnswire.Message) {
	if s.Transport == nil {
		m.Release()
	} else if r, ok := s.Transport.(recycler); ok {
		r.Recycle(m)
	}
}

// newQuery builds the message a scan patches per question, then releases.
func newQuery() *dnswire.Message {
	return dnswire.NewQuery(0, "", dnswire.TypeHTTPS, true)
}

// query patches q into the scan's next question — fresh ID, name (sent as
// given, canonical or not), type; nothing downstream retains q — and sends
// it, falling back to the backup resolver on error or SERVFAIL (the paper's
// Google→Cloudflare fallback). With a Transport configured, the query rides
// the encrypted serving layer instead and failover happens inside the
// transport's upstream pool. shown is how an error names the question. The
// caller gives the answer to done once it has read it.
func (s *Scanner) query(q *dnswire.Message, name, shown string, t dnswire.Type) (*dnswire.Message, error) {
	q.ID = s.nextID()
	q.Question[0].Name, q.Question[0].Type = dnswire.CanonicalName(name), t
	if s.Transport != nil {
		resp, err := s.Transport.Exchange(q)
		if err != nil {
			return nil, err
		}
		if resp.RCode == dnswire.RCodeServFail {
			s.done(resp)
			return nil, fmt.Errorf("scanner: SERVFAIL via transport for %s/%s", shown, t)
		}
		return resp, nil
	}
	resp, err := s.Net.QueryDNS(s.Primary, q)
	if err == nil && resp.RCode != dnswire.RCodeServFail {
		return resp, nil
	}
	resp.Release() // a SERVFAIL, or nil
	resp, berr := s.Net.QueryDNS(s.Backup, q)
	if berr == nil && resp.RCode != dnswire.RCodeServFail {
		return resp, nil
	}
	resp.Release()
	if err == nil {
		err = fmt.Errorf("scanner: SERVFAIL from both resolvers for %s/%s", shown, t)
	}
	return nil, err
}

// summarizeHTTPS converts a wire HTTPS record into the dataset summary,
// whose alpn and hint values are interned.
func summarizeHTTPS(rr dnswire.RR) (dataset.HTTPSRecord, bool) {
	data, ok := rr.Data.(*dnswire.SVCBData)
	if !ok || rr.Type != dnswire.TypeHTTPS {
		return dataset.HTTPSRecord{}, false
	}
	ps := data.Params
	out := dataset.HTTPSRecord{
		Priority:  data.Priority,
		Target:    data.Target,
		ALPN:      dnswire.InternParam(&alpnLists, ps, svcb.KeyALPN, svcb.Params.ALPN),
		NoDefALPN: ps.Has(svcb.KeyNoDefaultALPN),
		V4Hints:   dnswire.InternParam(&v4Hints, ps, svcb.KeyIPv4Hint, svcb.Params.IPv4Hints),
		V6Hints:   dnswire.InternParam(&v6Hints, ps, svcb.KeyIPv6Hint, svcb.Params.IPv6Hints),
	}
	out.Port, out.HasPort = ps.Port()
	e, has, ok := readECH(ps)
	if out.HasECH = has; ok {
		out.ECHConfigID, out.ECHKeyHash, out.ECHPublicName = e.ConfigID, e.KeyHash, e.PublicName
	}
	return out, true
}

// readECH reads an HTTPS record's ech parameter in place
// (ech.SelectInPlace) and nothing else of its parameters: has reports that
// the parameter is there, ok that its list is well formed and offers a
// supported config, whose id, key hash and public name it fills in — the
// values Fig 4 tracks rotation by. The key is hashed and the name interned,
// so nothing returned aliases the answer.
func readECH(ps svcb.Params) (obs dataset.ECHObservation, has, ok bool) {
	list, has := ps.ECH()
	if !has {
		return obs, false, false
	}
	cfg, err := ech.SelectInPlace(list)
	if err != nil {
		return obs, true, false
	}
	name, seen := publicNames.Lookup(cfg.PublicName)
	if !seen {
		name = publicNames.Keep(cfg.PublicName, string(cfg.PublicName))
	}
	obs.ConfigID, obs.KeyHash, obs.PublicName = cfg.ConfigID, dnswire.FNV1a(cfg.PublicKey), name
	return obs, true, true
}

// ScanDomain performs the full per-domain scan sequence: HTTPS (with CNAME
// chasing), then A/AAAA/SOA/NS when HTTPS records exist.
func (s *Scanner) ScanDomain(name string) *dataset.Observation {
	obs := new(dataset.Observation)
	s.scanInto(dnswire.CanonicalName(name), name, obs)
	return obs
}

// scanInto is ScanDomain of name, spelt canonically canon (which queries ask
// for), into the caller's observation: a list scan allocates only keepers.
func (s *Scanner) scanInto(canon, name string, obs *dataset.Observation) {
	*obs = dataset.Observation{Name: canon}

	q := newQuery()
	defer q.Release()
	resp, err := s.query(q, canon, name, dnswire.TypeHTTPS)
	if err != nil {
		obs.Err = err.Error()
		return
	}
	obs.AD = resp.AuthenticatedData
	s.extractHTTPS(resp, obs)
	s.done(resp)

	// CNAME chase (§4.1): if the answer contains a CNAME but the resolver
	// did not chase to an HTTPS record, re-query the target explicitly.
	if len(obs.CNAMEChain) > 0 && !obs.HasHTTPS() {
		target := obs.CNAMEChain[len(obs.CNAMEChain)-1]
		if sub, err := s.query(q, target, target, dnswire.TypeHTTPS); err == nil {
			s.extractHTTPS(sub, obs)
			obs.AD = obs.AD && sub.AuthenticatedData
			s.done(sub)
		}
	}

	if !obs.HasHTTPS() {
		return
	}
	// Follow-up queries for adopters.
	if resp, err := s.query(q, canon, name, dnswire.TypeA); err == nil {
		obs.A = answerAddrs(resp, dnswire.TypeA)
		s.done(resp)
	}
	if resp, err := s.query(q, canon, name, dnswire.TypeAAAA); err == nil {
		obs.AAAA = answerAddrs(resp, dnswire.TypeAAAA)
		s.done(resp)
	}
	apex := dnswire.ApexOf(canon)
	if resp, err := s.query(q, apex, apex, dnswire.TypeSOA); err == nil {
		for _, rr := range resp.Answer {
			if rr.Type == dnswire.TypeSOA {
				obs.HasSOA = true
			}
		}
		s.done(resp)
	}
	if resp, err := s.query(q, apex, apex, dnswire.TypeNS); err == nil {
		var buf [4]string
		hosts := buf[:0]
		for _, rr := range resp.Answer {
			if ns, ok := rr.Data.(*dnswire.NSData); ok {
				hosts = append(hosts, ns.Host)
			}
		}
		obs.NS = dnswire.InternNames(hosts)
		s.done(resp)
	}
}

// answerAddrs returns the interned addresses of resp's t (A or AAAA)
// records.
func answerAddrs(resp *dnswire.Message, t dnswire.Type) []netip.Addr {
	var buf [8]netip.Addr
	addrs := buf[:0]
	for _, rr := range resp.Answer {
		switch d := rr.Data.(type) {
		case *dnswire.AData:
			if t == dnswire.TypeA {
				addrs = append(addrs, d.Addr)
			}
		case *dnswire.AAAAData:
			if t == dnswire.TypeAAAA {
				addrs = append(addrs, d.Addr)
			}
		}
	}
	return dnswire.InternAddrs(addrs)
}

// extractHTTPS reads resp's answer into obs, which holds no HTTPS records
// yet: the HTTPS records' summaries, interned as a set under their keys
// (summarized only the first time the set is seen), whether an RRSIG
// covered them, and the CNAME targets, appended to the chain so far.
func (s *Scanner) extractHTTPS(resp *dnswire.Message, obs *dataset.Observation) {
	var kb [1024]byte
	key := kb[:0]
	var cb [4]string
	chain := append(cb[:0], obs.CNAMEChain...)
	for _, rr := range resp.Answer {
		switch rr.Type {
		case dnswire.TypeHTTPS:
			if data, ok := rr.Data.(*dnswire.SVCBData); ok {
				key = data.AppendKey(key)
			}
		case dnswire.TypeRRSIG:
			if sig, ok := rr.Data.(*dnswire.RRSIGData); ok && sig.TypeCovered == dnswire.TypeHTTPS {
				obs.Signed = true
			}
		case dnswire.TypeCNAME:
			chain = append(chain, rr.Data.(*dnswire.CNAMEData).Target)
		}
	}
	if len(key) > 0 {
		set, ok := httpsSets.Lookup(key)
		if !ok {
			for _, rr := range resp.Answer {
				if sum, ok := summarizeHTTPS(rr); ok {
					set = append(set, sum)
				}
			}
			set = httpsSets.Keep(key, slices.Clip(set))
		}
		obs.HTTPS = set
	}
	if len(chain) > len(obs.CNAMEChain) {
		obs.CNAMEChain = dnswire.InternNames(chain)
	}
}

// ScanList scans a ranked domain list concurrently over the bounded worker
// pool, producing a snapshot. kind is "apex" or "www"; for "www" the names
// are prefixed. www, if given, is each name's canonical www spelling
// "www.<name>." (tranco.Simulator.CanonListFor), index for index, so no
// name is spelled anew each day.
func (s *Scanner) ScanList(date time.Time, kind string, list []string, www ...string) *dataset.Snapshot {
	if len(www) == 0 {
		www = make([]string, len(list)) // every name spelt anew
	}
	snap := &dataset.Snapshot{Date: date, Kind: kind, Total: len(list), Obs: map[string]*dataset.Observation{}}
	// Most domain-days are dropped: only a keeper goes to the heap, carved
	// from a slab of 64 (a list wastes at most one slab's unused tail).
	var mu sync.Mutex
	var slab []dataset.Observation
	s.forEach(len(list), func(i int) {
		canon, name := spell(kind, list[i], www[i])
		var obs dataset.Observation
		s.scanInto(canon, name, &obs)
		if !obs.HasHTTPS() && obs.Err == "" {
			return
		}
		obs.Rank = i + 1
		mu.Lock()
		defer mu.Unlock()
		if len(slab) == cap(slab) {
			slab = make([]dataset.Observation, 0, 64)
		}
		slab = append(slab, obs)
		// A name listed twice keeps its last rank, whichever worker is first.
		if prev := snap.Obs[obs.Name]; prev == nil || prev.Rank < obs.Rank {
			snap.Obs[obs.Name] = &slab[len(slab)-1]
		}
	})
	return snap
}

// spell returns the question name and shown spelling of a list name: cut
// from www if it is canonical "www." + name + "." (name undotted), or new.
func spell(kind, name, www string) (canon, shown string) {
	if len(www) != len(name)+len("www..") || www[:4] != "www." || www[4:len(www)-1] != name ||
		strings.HasSuffix(www, "..") || dnswire.CanonicalName(www) != www {
		if kind == "www" {
			name = "www." + name
		}
		return dnswire.CanonicalName(name), name
	}
	if kind == "www" {
		return www, www[:len(www)-1]
	}
	return www[4:], name
}

// ScanNameServers resolves the addresses of every name-server host seen in
// the snapshot and attributes them via WHOIS (§4.2.2 methodology). Hosts
// are scanned in sorted order over the scanner's bounded worker pool.
func (s *Scanner) ScanNameServers(date time.Time, snaps ...*dataset.Snapshot) *dataset.NSSnapshot {
	hostSet := map[string]bool{}
	for _, snap := range snaps {
		for _, obs := range snap.Obs {
			for _, h := range obs.NS {
				hostSet[dnswire.CanonicalName(h)] = true
			}
		}
	}
	hosts := slices.Sorted(maps.Keys(hostSet))

	results := make([]*dataset.NSObservation, len(hosts))
	s.forEach(len(hosts), func(i int) {
		nso := &dataset.NSObservation{Host: hosts[i]}
		q := newQuery()
		defer q.Release()
		if resp, err := s.query(q, hosts[i], hosts[i], dnswire.TypeA); err == nil {
			nso.Addrs = answerAddrs(resp, dnswire.TypeA)
			s.done(resp)
		}
		if s.Whois != nil && len(nso.Addrs) > 0 {
			nso.Org = s.Whois.AttributeNameServer(nso.Addrs[0])
		}
		results[i] = nso
	})
	out := &dataset.NSSnapshot{Date: date, Servers: make(map[string]*dataset.NSObservation, len(hosts))}
	for _, nso := range results {
		out.Servers[nso.Host] = nso
	}
	return out
}

// ECHScan performs one hourly ECH observation pass over the given domains
// (the §4.4.2 experiment): one observation per HTTPS record whose ech
// parameter offers a supported config, and none for a record whose list
// does not parse or offers none (it names no key to track). Domains are
// scanned over the bounded worker pool; observations come back in
// input-domain order.
func (s *Scanner) ECHScan(now time.Time, domains []string) []dataset.ECHObservation {
	// Each domain appends into its own one-observation cell of cells, so
	// the usual single ECH record costs no allocation; only a domain with
	// a second one grows a slice of its own.
	cells := make([]dataset.ECHObservation, len(domains))
	slots := make([][]dataset.ECHObservation, len(domains))
	s.forEach(len(domains), func(i int) {
		name := domains[i]
		slots[i] = cells[i : i : i+1]
		q := newQuery()
		defer q.Release()
		resp, err := s.query(q, name, name, dnswire.TypeHTTPS)
		if err != nil {
			return
		}
		for _, rr := range resp.Answer {
			if data, ok := rr.Data.(*dnswire.SVCBData); ok && rr.Type == dnswire.TypeHTTPS {
				if obs, _, ok := readECH(data.Params); ok {
					obs.Time, obs.Domain = now, dnswire.CanonicalName(name)
					slots[i] = append(slots[i], obs)
				}
			}
		}
		s.done(resp)
	})
	return slices.Concat(slots...)
}

// ProbeMismatches runs the §4.3.5 connectivity experiment: for every
// observation whose IP hints disagree with its A records, TLS-probe both
// addresses. Candidates are probed in sorted domain order over the bounded
// worker pool, so the result slice is deterministic for a snapshot.
func (s *Scanner) ProbeMismatches(date time.Time, snap *dataset.Snapshot, prober Prober) []dataset.ProbeResult {
	var out []dataset.ProbeResult
	for _, name := range slices.Sorted(maps.Keys(snap.Obs)) {
		obs := snap.Obs[name]
		if !obs.HasHTTPS() || len(obs.A) == 0 {
			continue
		}
		hints := obs.V4Hints()
		if len(hints) == 0 || svcb.SameAddrSet(hints, obs.A) {
			continue
		}
		out = append(out, dataset.ProbeResult{
			Date: date, Domain: obs.Name, Mismatch: true,
			HintAddr: hints[0], AAddr: obs.A[0],
		})
	}
	s.forEach(len(out), func(i int) {
		apex := dnswire.ApexOf(out[i].Domain)
		out[i].HintOK = prober.ProbeTLS(apex, out[i].HintAddr) == nil
		out[i].AOK = prober.ProbeTLS(apex, out[i].AAddr) == nil
	})
	return out
}
