// Package resolver implements a caching recursive DNS resolver over simnet:
// iterative resolution from the closest cached zone cut (the root servers
// when none is known), TTL-driven caching on the virtual clock, cross-zone
// CNAME chasing, and DNSSEC chain validation that sets the AD bit — the
// role Google Public DNS (8.8.8.8) and Cloudflare (1.1.1.1) play in the
// paper's measurements.
//
// A resolver keeps three bounded tables: answers per (name, type), where a
// zone's validated keys are its DNSKEY answer with the AD bit set;
// delegations per zone (the servers a referral named, for the NS TTL); and
// — shared with every Fork, and so by a world's two public resolvers,
// Cloudflare's being a fork of Google's, and all their day and hour forks —
// the one query walk sends for each (name, type). A fork's answer and
// delegation maps start at the sizes its parent's previous fork reached.
// Signatures are checked against dnssec's process memo, to which the signer
// adds every signature it makes.
// docs/ARCHITECTURE.md, "Recursor cold path", has the rules each one
// follows.
//
// The answer cache is load-bearing for two of the paper's findings: stale
// HTTPS records explain both the ECH key-inconsistency window (§4.4.2) and
// the transient IP-hint/A mismatches (§4.3.5).
package resolver

import (
	"errors"
	"fmt"
	"net/netip"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dnssec"
	"repro/internal/dnswire"
	"repro/internal/simnet"
)

// Errors returned by resolution.
var (
	ErrServFail  = errors.New("resolver: no authoritative server answered")
	ErrLoop      = errors.New("resolver: resolution loop detected")
	ErrNoServers = errors.New("resolver: no root servers configured")
)

// maxChase bounds CNAME chain length, matching common resolver limits.
const maxChase = 8

// maxDepth bounds referral-following depth.
const maxDepth = 16

// maxGlueless is how many name servers without glue a referral may have
// resolved. Each of those lookups may in turn resolve one fewer per
// referral, down to none (the shape of Unbound's target-fetch-policy
// "3 2 1 0"), so a glueless delegation cycle ends, and no referral turns
// one query into thousands: not one naming thousands of glueless servers
// (the NXNSAttack amplification), nor a cycle that names several at every
// turn. The delegations the world makes need two at most.
const maxGlueless = 3

// Response is the outcome of a recursive resolution. Its record slices may
// alias the resolver's cache, capacity-clipped: read them, or append to get
// a copy, but do not write through them.
type Response struct {
	RCode dnswire.RCode
	// Answer contains the answer RRs in chase order (CNAMEs first).
	Answer []dnswire.RR
	// Sigs contains RRSIGs covering the answer RRsets (when DO was set by
	// the stub or validation ran).
	Sigs []dnswire.RR
	// AuthenticatedData is the AD bit: the full chain validated.
	AuthenticatedData bool
	// Authority carries the SOA for negative answers.
	Authority []dnswire.RR

	// joined is Answer followed by Sigs as one slice, set when that is how
	// they already sit in the cache: every answer that took no CNAME hop.
	joined []dnswire.RR
}

// rrKey addresses one cached RRset. name is canonical and shared with the
// caller's string, so a probe allocates nothing.
type rrKey struct {
	name string
	t    dnswire.Type
}

// AD states of a cache entry.
const (
	adUnknown uint8 = iota
	adInsecure
	adSecure
)

type cacheEntry struct {
	// answer holds the nData data records, then the RRSIGs covering them.
	answer    []dnswire.RR
	authority []dnswire.RR // the SOA of a negative answer
	expires   int64        // virtual-clock UnixNano
	rcode     dnswire.RCode
	nData     uint16
	ad        uint8
}

func (e *cacheEntry) rrs() []dnswire.RR  { return e.answer[:e.nData:e.nData] }
func (e *cacheEntry) sigs() []dnswire.RR { return slices.Clip(e.answer[e.nData:]) }

// Resolver is a caching recursive resolver.
type Resolver struct {
	Net *simnet.Network
	// Validate enables DNSSEC chain validation of HTTPS answers, the only
	// ones whose AD bit the measurements read.
	Validate bool
	// Anchor is the trusted root DNSKEY RRset used when Validate is set.
	Anchor []dnswire.RR

	mu    sync.Mutex
	cache map[rrKey]*cacheEntry
	slab  []cacheEntry // where newEntry carves the cache's entries from

	// cuts maps a zone to the servers a referral named for it, for the NS
	// RRset's TTL. The server lists are interned (dnswire.InternAddrs):
	// thousands of apexes share a few dozen provider NS sets.
	cuts map[string]zoneCut

	// queries holds walk's query for each (name, type). It is the state
	// Fork shares, so concurrent day workers build each query once.
	queries *queryTable

	// forks holds the cache and cut lengths this resolver's forks last
	// reported; Fork presizes a new fork's maps from them. parentForks is
	// the parent's forks, which this resolver reports into; nil for one
	// made by New.
	forks       tableLens
	parentForks *tableLens
}

// tableLens is a resolver's answer-cache and cut-table lengths.
type tableLens struct{ cache, cuts atomic.Int32 }

// queryTable holds walk's one query per (name, type), shared by a resolver
// and every fork of it. A query is a pure function of its key and is never
// patched once built, so every sender may hand the same one to a server that
// keeps what it is sent. The slab carves the queries, under mu.
type queryTable struct {
	mu   sync.RWMutex
	m    map[rrKey]*dnswire.Message
	slab dnswire.QuerySlab
}

type zoneCut struct {
	servers []netip.Addr
	expires int64
}

// Cache caps. Each sits above the largest benchmark working set (a
// 20 000-domain serving world), so they bound a long-lived resolver
// without moving any workload's upstream query count.
const (
	maxAnswers = 1 << 18
	maxCuts    = 1 << 16
)

// makeRoom keeps m below max entries: at the cap it sweeps the expired
// ones, and when that frees less than an eighth it drops everything, so
// map order never decides what survives and a full table of live entries
// is not re-swept on every insert.
func makeRoom[K comparable, V any](m map[K]V, max int, expired func(V) bool) {
	if len(m) < max {
		return
	}
	for k, v := range m {
		if expired(v) {
			delete(m, k)
		}
	}
	if len(m) > max-max/8 {
		clear(m)
	}
}

// New creates a resolver on the given network.
func New(net *simnet.Network) *Resolver {
	r := &Resolver{Net: net, queries: &queryTable{m: map[rrKey]*dnswire.Message{}}}
	r.FlushCache()
	return r
}

// Fork returns a resolver on the given network (normally a per-day view of
// the parent's) with the same validation configuration, empty answer and
// delegation caches, and the parent's query table. Per-day scan contexts
// use it to give each simulated day an isolated recursor state: with record
// TTLs far below a day, a fresh cache answers identically to the serial
// run's carried-over cache, without any cross-day locking or time skew.
// The query table can be shared because it holds no DNS data. The fork's
// answer and cut maps start at the sizes the parent's previous fork last
// reported.
func (r *Resolver) Fork(net *simnet.Network) *Resolver {
	f := &Resolver{Net: net, Validate: r.Validate, Anchor: r.Anchor,
		queries: r.queries, parentForks: &r.forks}
	f.flush(int(r.forks.cache.Load()), int(r.forks.cuts.Load()))
	return f
}

func (r *Resolver) now() int64 { return r.Net.Clock.Now().UnixNano() }

// Get implements dnssec.ZoneKeyCache: a zone's keys are validated while its
// live DNSKEY answer carries the AD bit Put set.
func (r *Resolver) Get(zone string) ([]dnswire.RR, bool) {
	now := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.cache[rrKey{zone, dnswire.TypeDNSKEY}]
	if e == nil || e.expires <= now || e.ad != adSecure {
		return nil, false
	}
	return e.rrs(), true
}

// Put implements dnssec.ZoneKeyCache: it sets the AD bit of zone's DNSKEY
// answer when keys are that answer's own records, the ones the validator
// fetched. Keys of an answer fetched again since, or copied from it, mark
// nothing: only the records that validated are vouched for.
func (r *Resolver) Put(zone string, keys []dnswire.RR) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.cache[rrKey{zone, dnswire.TypeDNSKEY}]
	if e != nil && len(keys) > 0 && len(keys) == int(e.nData) && &keys[0] == &e.answer[0] {
		e.ad = adSecure
	}
}

// FlushCache drops all cached answers (validated zone keys with them) and
// delegations. The query table stays: it holds no DNS data.
func (r *Resolver) FlushCache() { r.flush(0, 0) }

// flush is FlushCache with room for cacheLen answers and cutsLen cuts.
func (r *Resolver) flush(cacheLen, cutsLen int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cache = make(map[rrKey]*cacheEntry, cacheLen)
	r.slab = nil
	r.cuts = make(map[string]zoneCut, cutsLen)
}

// cacheLen returns the number of live cache entries.
func (r *Resolver) cacheLen() int {
	now := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, e := range r.cache {
		if e.expires > now {
			n++
		}
	}
	return n
}

// newEntry returns a cache entry for rcode from the resolver's slab. Chunks
// start at 16 entries, for a fork that makes a few dozen, and double to 256.
func (r *Resolver) newEntry(rcode dnswire.RCode) *cacheEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.slab) == cap(r.slab) {
		r.slab = make([]cacheEntry, 0, min(max(2*cap(r.slab), 16), 256))
	}
	r.slab = append(r.slab, cacheEntry{rcode: rcode})
	return &r.slab[len(r.slab)-1]
}

// query returns walk's non-recursive query for (name, t), building it in
// the table's slab on first ask. At maxAnswers keys the table is dropped
// whole (no query ever expires); the dropped queries stay with their
// holders.
func (qt *queryTable) query(name string, t dnswire.Type) *dnswire.Message {
	k := rrKey{name, t}
	qt.mu.RLock()
	q := qt.m[k]
	qt.mu.RUnlock()
	if q != nil {
		return q
	}
	qt.mu.Lock()
	defer qt.mu.Unlock()
	if q = qt.m[k]; q != nil {
		return q
	}
	makeRoom(qt.m, maxAnswers, func(*dnswire.Message) bool { return false })
	q = qt.slab.NewQuery(uint16(len(name)*31+int(t)), name, t, true)
	q.RecursionDesired = false
	qt.m[k] = q
	return q
}

// cached returns the live entry for a canonical name.
func (r *Resolver) cached(name string, t dnswire.Type) (*cacheEntry, bool) {
	now := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.cache[rrKey{name, t}]
	if !ok || e.expires <= now {
		return nil, false
	}
	return e, true
}

func (r *Resolver) store(name string, t dnswire.Type, e *cacheEntry) {
	now := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	makeRoom(r.cache, maxAnswers, func(e *cacheEntry) bool { return e.expires <= now })
	r.cache[rrKey{name, t}] = e
	if r.parentForks != nil {
		r.parentForks.cache.Store(int32(len(r.cache)))
	}
}

// minTTL returns the smallest TTL in the set, defaulting to def.
func minTTL(rrs []dnswire.RR, def uint32) uint32 {
	ttl := def
	for i, rr := range rrs {
		if i == 0 || rr.TTL < ttl {
			ttl = rr.TTL
		}
	}
	return ttl
}

// closestCut returns the servers of the deepest live cached cut enclosing
// name, and that cut's zone; the root servers and "." when none is cached.
// A DS RRset lives on the parent side of its owner's cut (RFC 4035 §3.1.4.1),
// so for DS the search starts strictly above name: asked at the child, the
// validator's DS fetch would come back empty and every secure chain would
// lose its AD bit.
func (r *Resolver) closestCut(name string, t dnswire.Type) ([]netip.Addr, string) {
	now := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	zone := name
	if t == dnswire.TypeDS {
		zone = dnswire.ParentName(zone)
	}
	for ; zone != "."; zone = dnswire.ParentName(zone) {
		if c, ok := r.cuts[zone]; ok && c.expires > now {
			return c.servers, zone
		}
	}
	return r.Net.RootServers(), "."
}

// lookupAuthoritative performs one iterative resolution of a canonical name
// (no CNAME chasing, no answer cache) starting from the closest cached cut.
// When a walk that started below the root fails — the cut's servers are
// down, or refuse a zone that has since moved — the cut is dropped and the
// walk redone from the root, so a cached delegation never produces a
// failure the root walk would not have. glueless is resolveRRset's.
func (r *Resolver) lookupAuthoritative(name string, t dnswire.Type, glueless int) (*cacheEntry, error) {
	servers, zone := r.closestCut(name, t)
	e, err := r.walk(servers, zone, name, t, glueless)
	if err != nil && zone != "." {
		r.mu.Lock()
		delete(r.cuts, zone)
		r.mu.Unlock()
		e, err = r.walk(r.Net.RootServers(), ".", name, t, glueless)
	}
	return e, err
}

// walk follows referrals from the servers of zone down to an answer for
// name, recording each delegation it crosses in the cut table. glueless
// is resolveRRset's.
func (r *Resolver) walk(servers []netip.Addr, zone, name string, t dnswire.Type, glueless int) (*cacheEntry, error) {
	if len(servers) == 0 {
		return nil, ErrNoServers
	}
	// q is the query table's one query for (name, t), never patched once
	// sent: a handler may keep the queries it saw (the benchmark's replay
	// probe does), and every fork sends this same one.
	q := r.queries.query(name, t)
	for range maxDepth {
		resp, err := r.queryAny(servers, q)
		if err != nil {
			return nil, err
		}
		now := r.now()
		switch {
		case resp.RCode == dnswire.RCodeNXDomain,
			resp.RCode == dnswire.RCodeNoError && len(resp.Answer) > 0,
			resp.RCode == dnswire.RCodeNoError && resp.Authoritative:
			e := r.newEntry(resp.RCode)
			answer, n := sigsLast(resp.Answer)
			e.answer, e.nData = answer, uint16(n)
			ttl := minTTL(e.rrs(), 300)
			if n == 0 {
				// Negative answer: TTL from SOA minimum if present, and
				// the SOA kept (without its signatures) for the reply: a
				// capacity-clipped alias of the server's section, not a
				// copy. The RRSIGs behind it are pinned anyway, by the
				// box the server keeps them in.
				ttl = negativeTTL(resp.Authority)
				auth, k := sigsLast(resp.Authority)
				e.authority = auth[:k:k]
			}
			e.expires = now + int64(ttl)*int64(time.Second)
			// The entry aliases the server's section arrays, which are
			// never the skeleton's inline ones, so the reply can go home.
			resp.Release()
			return e, nil
		case resp.RCode != dnswire.RCodeNoError:
			e := r.newEntry(resp.RCode)
			e.expires = now + int64(30*time.Second)
			resp.Release()
			return e, nil
		}
		// Referral: gather next servers from the authority NS set, as
		// interned addresses that hold nothing of the reply.
		child, ttl, next := r.referral(resp, glueless)
		resp.Release()
		if len(next) == 0 {
			return nil, fmt.Errorf("%w: dead referral for %s", ErrServFail, name)
		}
		// Only a delegation that leads down towards name is remembered; a
		// sideways or upward referral is followed as before, once.
		if len(child) > len(zone) && dnswire.IsSubdomain(child, zone) && dnswire.IsSubdomain(name, child) {
			r.mu.Lock()
			makeRoom(r.cuts, maxCuts, func(c zoneCut) bool { return c.expires <= now })
			r.cuts[child] = zoneCut{servers: next, expires: now + int64(ttl)*int64(time.Second)}
			if r.parentForks != nil {
				r.parentForks.cuts.Store(int32(len(r.cuts)))
			}
			r.mu.Unlock()
			zone = child
		}
		servers = next
	}
	return nil, ErrLoop
}

// queryAny tries the servers in order and returns the first response
// that answers q, which is the caller's to release. A refusal, and a
// reply that is truncated or answers another query (another ID or
// question), it releases itself and moves on to the next server: nothing
// of such a reply is returned or cached.
func (r *Resolver) queryAny(servers []netip.Addr, q *dnswire.Message) (*dnswire.Message, error) {
	var lastErr error
	for _, s := range servers {
		resp, err := r.Net.QueryDNS(s, q)
		switch {
		case err != nil:
			lastErr = err
			continue
		case resp.Truncated || !resp.Answers(q):
			lastErr = fmt.Errorf("resolver: %v sent no answer to the query", s)
		case resp.RCode == dnswire.RCodeRefused:
			lastErr = fmt.Errorf("resolver: %v refused", s)
		default:
			return resp, nil
		}
		resp.Release()
	}
	if lastErr == nil {
		lastErr = ErrServFail
	}
	return nil, fmt.Errorf("%w: %v", ErrServFail, lastErr)
}

// referral extracts the delegated zone, its NS TTL and the name server
// addresses from a referral response, resolving at most glueless of the
// name servers that came without glue, each with one fewer of its own.
func (r *Resolver) referral(resp *dnswire.Message, glueless int) (zone string, ttl uint32, servers []netip.Addr) {
	var buf [8]netip.Addr
	addrs := buf[:0] // interned below, so the scratch stays on the stack
	chased := 0
	for _, rr := range resp.Authority {
		ns, ok := rr.Data.(*dnswire.NSData)
		if !ok {
			continue
		}
		if zone == "" {
			zone, ttl = dnswire.CanonicalName(rr.Name), rr.TTL
		}
		ttl = min(ttl, rr.TTL)
		h := dnswire.CanonicalName(ns.Host)
		// Prefer glue.
		n := len(addrs)
		for _, g := range resp.Additional {
			if g.Name != h {
				continue
			}
			switch d := g.Data.(type) {
			case *dnswire.AData:
				addrs = append(addrs, d.Addr)
			case *dnswire.AAAAData:
				addrs = append(addrs, d.Addr)
			}
		}
		if len(addrs) > n || chased == glueless {
			continue
		}
		// Glueless delegation: resolve the NS host's address.
		chased++
		sub, err := r.resolveRRset(h, dnswire.TypeA, glueless-1)
		if err != nil {
			continue
		}
		for _, rr := range sub.rrs() {
			if a, ok := rr.Data.(*dnswire.AData); ok {
				addrs = append(addrs, a.Addr)
			}
		}
	}
	return zone, ttl, dnswire.InternAddrs(addrs)
}

// sigsLast returns a response section ordered data first, RRSIGs last, and
// the number of data records. Servers already answer in that order, so the
// usual section is returned as is (the response is the resolver's own
// copy); only an interleaved one is rebuilt.
func sigsLast(rrs []dnswire.RR) ([]dnswire.RR, int) {
	isSig := func(rr dnswire.RR) bool { return rr.Type == dnswire.TypeRRSIG }
	n := slices.IndexFunc(rrs, isSig)
	if n < 0 {
		return rrs, len(rrs)
	}
	if slices.ContainsFunc(rrs[n:], func(rr dnswire.RR) bool { return !isSig(rr) }) {
		rrs = slices.Clone(rrs)
		slices.SortStableFunc(rrs, func(a, b dnswire.RR) int {
			switch {
			case isSig(a) == isSig(b):
				return 0
			case isSig(b):
				return -1
			}
			return 1
		})
		n = slices.IndexFunc(rrs, isSig)
	}
	return rrs, n
}

func negativeTTL(authority []dnswire.RR) uint32 {
	for _, rr := range authority {
		if soa, ok := rr.Data.(*dnswire.SOAData); ok {
			ttl := soa.Minimum
			if rr.TTL < ttl {
				ttl = rr.TTL
			}
			return ttl
		}
	}
	return 60
}

// resolveRRset resolves one (canonical name, type) with caching, no CNAME
// chasing. glueless is how many name servers without glue each referral
// on the way may have resolved: maxGlueless for a query of its own, one
// fewer for each glueless lookup it is nested in (see maxGlueless).
func (r *Resolver) resolveRRset(name string, t dnswire.Type, glueless int) (*cacheEntry, error) {
	if e, ok := r.cached(name, t); ok {
		return e, nil
	}
	e, err := r.lookupAuthoritative(name, t, glueless)
	if err != nil {
		return nil, err
	}
	r.store(name, t, e)
	return e, nil
}

// Resolve performs a full recursive resolution with CNAME chasing and
// (when enabled) DNSSEC validation.
func (r *Resolver) Resolve(name string, t dnswire.Type) (*Response, error) {
	out := new(Response)
	if err := r.resolveInto(out, name, t); err != nil {
		return nil, err
	}
	return out, nil
}

// resolveInto is Resolve into out, which HandleDNS keeps on its stack.
func (r *Resolver) resolveInto(out *Response, name string, t dnswire.Type) error {
	*out = Response{RCode: dnswire.RCodeNoError, AuthenticatedData: r.Validate}
	current := dnswire.CanonicalName(name)
	for hop := 0; hop < maxChase; hop++ {
		e, err := r.resolveRRset(current, t, maxGlueless)
		if err != nil {
			return err
		}
		out.RCode = e.rcode
		if hop == 0 {
			// Capacity-clipped aliases of the cached entry: a reader
			// copies nothing, an appender moves to its own array.
			out.Answer, out.Sigs, out.joined = e.rrs(), e.sigs(), slices.Clip(e.answer)
		} else {
			out.Answer = append(out.Answer, e.rrs()...)
			out.Sigs = append(out.Sigs, e.sigs()...)
			out.joined = nil
		}
		if e.nData == 0 {
			out.Authority = e.authority
		}
		if r.Validate && t == dnswire.TypeHTTPS && (e.nData > 0 || e.rcode == dnswire.RCodeNoError) {
			out.AuthenticatedData = out.AuthenticatedData && r.validateEntry(current, t, e)
		} else {
			out.AuthenticatedData = false
		}
		// Determine whether to chase a CNAME: answer has a CNAME at
		// `current` but no record of the queried type.
		next := chaseTarget(e.rrs(), current, t)
		if next == "" {
			return nil
		}
		current = next
		// If the chased target's records were already included by the
		// authoritative server (in-zone chase), stop here.
		if hasType(e.rrs(), current, t) {
			return nil
		}
	}
	return ErrLoop
}

func chaseTarget(rrs []dnswire.RR, name string, t dnswire.Type) string {
	if t == dnswire.TypeCNAME {
		return ""
	}
	var target string
	for _, rr := range rrs {
		if rr.Type == t && dnswire.CanonicalName(rr.Name) == name {
			return "" // direct answer present
		}
		if c, ok := rr.Data.(*dnswire.CNAMEData); ok && dnswire.CanonicalName(rr.Name) == name {
			target = dnswire.CanonicalName(c.Target)
		}
	}
	return target
}

func hasType(rrs []dnswire.RR, name string, t dnswire.Type) bool {
	for _, rr := range rrs {
		if rr.Type == t && dnswire.CanonicalName(rr.Name) == name {
			return true
		}
	}
	return false
}

// validateEntry runs chain validation for one RRset and caches the result.
func (r *Resolver) validateEntry(name string, t dnswire.Type, e *cacheEntry) bool {
	r.mu.Lock()
	ad := e.ad
	r.mu.Unlock()
	if ad == adUnknown {
		ad = adInsecure
		// An RRset that came without signatures is insecure or bogus,
		// never secure: its AD bit is known without walking the chain.
		if len(e.answer) > int(e.nData) && r.ValidateChain(name, t) == dnssec.Secure {
			ad = adSecure
		}
		r.mu.Lock()
		e.ad = ad
		r.mu.Unlock()
	}
	return ad == adSecure
}

// ValidateChain validates the RRset (name, t) from the trust anchor down,
// over the resolver's own lookups, at its clock's time: the one place this
// package builds a validator, for the recursor's AD bit and for the Table 9
// census alike. Zone keys that validated are kept in the resolver's
// answers (Get, Put), and signatures are checked against dnssec's process
// memo.
func (r *Resolver) ValidateChain(name string, t dnswire.Type) dnssec.Result {
	v := dnssec.NewValidator(r, r.Anchor, r.Net.Clock.Now())
	v.KeyCache, v.Memo = r, dnssec.ProcessMemo()
	res, _ := v.Validate(name, t)
	return res
}

// FetchRRset implements dnssec.ChainSource over the resolver's iterative,
// caching lookups: the RRset of (name, t) and its signatures, when that
// resolves to a non-empty answer.
func (r *Resolver) FetchRRset(name string, t dnswire.Type) ([]dnswire.RR, []dnswire.RR, bool) {
	e, err := r.resolveRRset(dnswire.CanonicalName(name), t, maxGlueless)
	if err != nil || e.rcode != dnswire.RCodeNoError || e.nData == 0 {
		return nil, nil, false
	}
	return e.rrs(), e.sigs(), true
}

// HandleDNS implements simnet.DNSHandler so the resolver can be placed at a
// public address (e.g. 8.8.8.8) and queried by stubs.
func (r *Resolver) HandleDNS(q *dnswire.Message) *dnswire.Message {
	resp := q.Reply()
	resp.RecursionAvailable = true
	if len(q.Question) != 1 {
		resp.RCode = dnswire.RCodeFormErr
		return resp
	}
	question := q.Question[0]
	var res Response
	if err := r.resolveInto(&res, question.Name, question.Type); err != nil {
		resp.RCode = dnswire.RCodeServFail
		return resp
	}
	resp.RCode = res.RCode
	resp.Answer = res.Answer
	if q.DNSSECOK() {
		if res.joined != nil {
			resp.Answer = res.joined
		} else {
			resp.Answer = append(resp.Answer, res.Sigs...)
		}
		resp.Authority = res.Authority
	}
	resp.AuthenticatedData = res.AuthenticatedData
	return resp
}
