package main

import (
	"io"
	"net/netip"
	"runtime"
	"sort"
	"time"

	"repro/internal/authserver"
	"repro/internal/dataset"
	"repro/internal/dnssec"
	"repro/internal/dnswire"
	"repro/internal/providers"
	"repro/internal/resolver"
	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/workload"
)

// A probe is a single-goroutine timed loop over one layer's exported entry
// point, fed the world and name list of the workload being traced. Probes
// give per-call costs the span tree cannot: the tree says which layer owns
// the time, a probe says what one call into it costs and allocates.

// probeMaxSamples bounds a probe's sample buffer, which is allocated up
// front so that growing it is not counted as the layer's allocation.
const probeMaxSamples = 1 << 16

type probeResult struct {
	p50, mean float64 // ns per call
	iters     int     // calls, warm-up included
	allocs    float64 // per call, timed part only
}

// probe calls fn(i) with a running i for about box: a fifth of it
// untimed to warm caches and pools, the rest in timed batches of `batch`
// calls (batches keep the clock reads out of nanosecond-scale calls).
func probe(box time.Duration, batch int, fn func(i int)) probeResult {
	i := 0
	for warm := time.Now(); time.Since(warm) < box/5; {
		for b := 0; b < batch; b++ {
			fn(i)
			i++
		}
	}
	samples := make([]float64, 0, probeMaxSamples)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for len(samples) < probeMaxSamples && (time.Since(start) < box*4/5 || len(samples) < 10) {
		t0 := time.Now()
		for b := 0; b < batch; b++ {
			fn(i)
			i++
		}
		samples = append(samples, float64(time.Since(t0))/float64(batch))
	}
	runtime.ReadMemStats(&m1)
	timed := float64(len(samples) * batch)
	var sum float64
	for _, s := range samples {
		sum += s
	}
	return probeResult{
		p50: median(samples), mean: sum / float64(len(samples)), iters: i,
		allocs: float64(m1.Mallocs-m0.Mallocs) / timed,
	}
}

// prober runs the layer probes over one world.
type prober struct {
	w     *providers.World
	names []string // canonical, served at `at`
	at    time.Time
	box   time.Duration
	out   map[string]float64
}

func (p *prober) set(name string, v float64) { p.out[name] = v }

// view is a private clock and network view pinned at p.at.
func (p *prober) view() (*simnet.Clock, *simnet.Network) {
	clock := simnet.NewClock(p.at)
	return clock, p.w.Net.WithClock(clock)
}

// countingSource counts the RRset fetches a validation makes.
type countingSource struct {
	src dnssec.ChainSource
	n   int
}

func (c *countingSource) FetchRRset(name string, t dnswire.Type) ([]dnswire.RR, []dnswire.RR, bool) {
	c.n++
	return c.src.FetchRRset(name, t)
}

// resolverAndDNSSEC probes the recursor cold (each name's first
// resolution on a forked recursor, referral and zone-key caches filling as
// a scan day's do) and warm (every name cached), then DNSSEC validation
// over the warm recursor, where a validation is signature checks only.
func (p *prober) resolverAndDNSSEC() {
	_, net := p.view()
	r := p.w.GoogleResolver.Fork(net)
	q0 := net.QueryCount()
	cold := probe(p.box, 1, func(i int) {
		k := i % len(p.names)
		if k == 0 && i > 0 {
			r = p.w.GoogleResolver.Fork(net)
		}
		_, _ = r.Resolve(p.names[k], dnswire.TypeHTTPS) // outcome checked in the fill pass below
	})
	p.set("resolver.resolve_cold_us", cold.p50/1e3)
	p.set("resolver.allocs_per_resolve_cold", cold.allocs)
	p.set("resolver.upstream_per_resolve_cold", float64(net.QueryCount()-q0)/float64(cold.iters))

	var secure []string
	for _, name := range p.names {
		if resp, err := r.Resolve(name, dnswire.TypeHTTPS); err == nil && resp.AuthenticatedData && len(resp.Answer) > 0 {
			secure = append(secure, name)
		}
	}
	warm := probe(p.box, 16, func(i int) {
		_, _ = r.Resolve(p.names[i%len(p.names)], dnswire.TypeHTTPS)
	})
	p.set("resolver.resolve_warm_us", warm.p50/1e3)
	p.set("resolver.allocs_per_resolve_warm", warm.allocs)

	if len(secure) == 0 {
		return // a smoke-sized world may sign no HTTPS adopter
	}
	src := &countingSource{src: r}
	v := dnssec.NewValidator(src, p.w.Anchor, p.at)
	v.KeyCache = r
	val := probe(p.box, 1, func(i int) {
		_, _ = v.Validate(secure[i%len(secure)], dnswire.TypeHTTPS)
	})
	p.set("dnssec.validate_us", val.p50/1e3)
	p.set("dnssec.fetches_per_validate", float64(src.n)/float64(val.iters))
	// What a perfect signature memo could save of a cold resolution: mean
	// validation cost, weighted by the share of names that validate.
	p.set("dnssec.share_of_resolve_pct",
		100*val.mean*float64(len(secure))/float64(len(p.names))/cold.mean)

	rrs, sigs, _ := r.FetchRRset(secure[0], dnswire.TypeHTTPS)
	if len(sigs) == 0 {
		return
	}
	signer := sigs[0].Data.(*dnswire.RRSIGData).SignerName
	keys, _, _ := r.FetchRRset(signer, dnswire.TypeDNSKEY)
	for _, key := range keys {
		if dnssec.VerifyRRSIG(sigs[0], rrs, key, p.at) != nil {
			continue
		}
		ver := probe(p.box, 1, func(int) { _ = dnssec.VerifyRRSIG(sigs[0], rrs, key, p.at) })
		p.set("dnssec.verify_rrsig_us", ver.p50/1e3)
		return
	}
}

// capturedQuery is one query an authoritative received during a cold pass.
type capturedQuery struct {
	h authoritative
	q *dnswire.Message
}

// capturer records the queries reaching one authoritative.
type capturer struct {
	h   authoritative
	log *[]capturedQuery
}

func (c capturer) HandleDNS(q *dnswire.Message) *dnswire.Message { return c.h.HandleDNS(q) }

func (c capturer) HandleDNSAt(q *dnswire.Message, now time.Time) *dnswire.Message {
	// The recursor builds a fresh query per upstream call and nobody
	// mutates it afterwards, so the pointer can be kept for the replay.
	if len(*c.log) < probeMaxSamples {
		*c.log = append(*c.log, capturedQuery{c.h, q})
	}
	return c.h.HandleDNSAt(q, now)
}

// authoritatives replays, against Provider and TLDServer, the queries a
// cold resolution pass sent them; and probes authserver.Server over the
// world's signed root zone.
func (p *prober) authoritatives() {
	_, net := p.view()
	var log []capturedQuery
	for _, tld := range p.w.TLDs {
		net.OverrideDNS(tld.Addr, capturer{tld, &log})
	}
	for _, pr := range p.w.Providers {
		for _, addr := range pr.NSAddrs {
			net.OverrideDNS(addr, capturer{pr, &log})
		}
	}
	r := p.w.GoogleResolver.Fork(net)
	for _, name := range p.names {
		_, _ = r.Resolve(name, dnswire.TypeHTTPS)
	}
	if len(log) > 0 {
		res := probe(p.box, 4, func(i int) {
			c := log[i%len(log)]
			c.h.HandleDNSAt(c.q, p.at)
		})
		p.set("providers.handle_us", res.p50/1e3)
		p.set("providers.allocs_per_query", res.allocs)
	}

	srv := authserver.New()
	srv.AddZone(p.w.RootZone)
	tlds := make([]string, 0, len(p.w.TLDs))
	for tld := range p.w.TLDs {
		tlds = append(tlds, tld)
	}
	sort.Strings(tlds)
	var qs []*dnswire.Message
	for _, tld := range tlds {
		for _, t := range []dnswire.Type{dnswire.TypeNS, dnswire.TypeDS, dnswire.TypeDNSKEY} {
			qs = append(qs, dnswire.NewQuery(uint16(len(qs)), tld, t, true))
		}
	}
	res := probe(p.box, 4, func(i int) { srv.HandleDNS(qs[i%len(qs)]) })
	p.set("authserver.handle_us", res.p50/1e3)
	p.set("authserver.allocs_per_query", res.allocs)
}

// httpsAnswer is a recursor's full answer for the first name that has an
// HTTPS record (or, failing that, for the first name).
func (p *prober) httpsAnswer(r *resolver.Resolver) *dnswire.Message {
	var first *dnswire.Message
	for i, name := range p.names {
		resp := r.HandleDNS(dnswire.NewQuery(uint16(i), name, dnswire.TypeHTTPS, true))
		if first == nil {
			first = resp
		}
		if len(resp.Answer) > 0 {
			return resp
		}
	}
	return first
}

// wire probes the codec's reuse forms on an HTTPS answer.
func (p *prober) wire() {
	_, net := p.view()
	msg := p.httpsAnswer(p.w.GoogleResolver.Fork(net))
	packed, err := msg.Pack()
	if err != nil {
		return
	}
	buf := make([]byte, 0, 2*len(packed))
	pack := probe(p.box/2, 64, func(int) { buf, _ = msg.AppendPack(buf[:0]) })
	var into dnswire.Message
	unpack := probe(p.box/2, 64, func(int) { _ = dnswire.UnpackInto(&into, packed) })
	p.set("dnswire.pack_ns", pack.p50)
	p.set("dnswire.unpack_ns", unpack.p50)
	p.set("dnswire.allocs_per_roundtrip", pack.allocs+unpack.allocs)
}

// probeFleet stands up a four-frontend racing fleet of the given mix over
// forked recursors on a private view.
func (p *prober) probeFleet(mix transport.Mix, cache transport.CacheConfig) *transport.Fleet {
	clock, net := p.view()
	g, cf := p.w.GoogleResolver.Fork(net), p.w.CFResolver.Fork(net)
	fl := transport.NewFleet(net, clock, transport.FleetConfig{
		Seed:     p.w.Cfg.Seed,
		Strategy: transport.StrategyConfig{Kind: transport.StrategyRace},
		Cache:    cache, Override: true,
		Latency: transport.SyntheticLatency(fleetLatencyBase, fleetLatencySpread),
	})
	for i, proto := range mix.Assign(fleetFrontends) {
		var recursor simnet.DNSHandler = g
		if i%2 == 1 {
			recursor = cf
		}
		ap := netip.AddrPortFrom(p.w.Alloc.AllocV4("BenchProbeFrontend"), proto.Port())
		fl.Add(proto, proto.String(), recursor, ap)
	}
	fl.Client.SetReuseAnswers(true)
	return fl
}

// exchangeLoop warms the fleet with every name, then probes the stub
// client's exchange over them.
func (p *prober) exchangeLoop(fl *transport.Fleet, box time.Duration) probeResult {
	q := dnswire.NewQuery(1, p.names[0], dnswire.TypeHTTPS, true)
	exchange := func(i int) {
		q.ID++
		q.Question[0].Name = p.names[i%len(p.names)]
		_, _ = fl.Client.Exchange(q) // the workloads' own checks cover answer correctness
	}
	for i := range p.names {
		exchange(i)
	}
	return probe(box, 4, exchange)
}

// transportLayer probes the serving path: cached and uncached exchanges on
// the workloads' mixed fleet, each envelope alone, and the cache's insert.
func (p *prober) transportLayer() {
	hit := p.exchangeLoop(p.probeFleet(fleetMix, transport.CacheConfig{}), p.box)
	p.set("transport.exchange_hit_us", hit.p50/1e3)
	p.set("transport.allocs_per_exchange_hit", hit.allocs)
	// A one-entry cache misses on every name but the last one asked.
	miss := p.exchangeLoop(p.probeFleet(fleetMix, transport.CacheConfig{Shards: 1, ShardCapacity: 1}), p.box)
	p.set("transport.exchange_miss_us", miss.p50/1e3)
	p.set("transport.allocs_per_exchange_miss", miss.allocs)
	for _, e := range []struct {
		metric string
		mix    transport.Mix
	}{
		{"transport.doh_exchange_us", transport.Mix{DoH: 1}},
		{"transport.dot_exchange_us", transport.Mix{DoT: 1}},
		{"transport.doq_exchange_us", transport.Mix{DoQ: 1}},
	} {
		res := p.exchangeLoop(p.probeFleet(e.mix, transport.CacheConfig{}), p.box/2)
		p.set(e.metric, res.p50/1e3)
	}

	// serve-miss's geometry: far fewer slots than names, so every Put of a
	// cycling name is an insert plus an eviction.
	clock, net := p.view()
	cache := transport.NewCacheWith(clock, transport.CacheConfig{Shards: 4, ShardCapacity: 64})
	msg := p.httpsAnswer(p.w.GoogleResolver.Fork(net))
	ins := probe(p.box, 4, func(i int) {
		cache.Put(transport.Key{Name: p.names[i%len(p.names)], Type: dnswire.TypeHTTPS, DO: true}, msg)
	})
	p.set("transport.cache_insert_us", ins.p50/1e3)
}

// nopExchanger answers every query with one fixed message.
type nopExchanger struct{ resp dnswire.Message }

func (n *nopExchanger) Exchange(*dnswire.Message) (*dnswire.Message, error) { return &n.resp, nil }

// engine times the workload engine against a target that does nothing, so
// what is left is the engine's own cost per query at the shape's population.
func (p *prober) engine(sh shape, seed int64) error {
	clock, _ := p.view()
	cfg := sh.engineConfig(seed, p.names, sh.traceQueries)
	cfg.Mix = transport.Mix{} // the no-op target has no protocols to prefer
	eng, err := workload.New(cfg, clock, &nopExchanger{})
	if err != nil {
		return err
	}
	t0 := time.Now()
	sum := eng.Run()
	p.set("workload.engine_ns_per_query", float64(time.Since(t0))/float64(sum.Queries))
	return nil
}

// store times the dataset's read side over the store a traced run filled:
// the merge-on-read accessors, and the canonical JSON export.
func (p *prober) store(st *dataset.Store) error {
	var merge, export []float64
	for rep := 0; rep < 3; rep++ {
		t0 := time.Now()
		for _, kind := range []string{"apex", "www"} {
			for _, day := range st.Days(kind) {
				st.SnapshotFor(kind, day)
			}
		}
		for _, day := range st.NSDays() {
			st.NSSnapshotFor(day)
		}
		st.ECHObservations()
		st.Probes()
		st.TelemetryAll()
		merge = append(merge, float64(time.Since(t0))/1e6)
		t0 = time.Now()
		if err := st.WriteJSON(io.Discard); err != nil {
			return err
		}
		export = append(export, float64(time.Since(t0))/1e6)
	}
	p.set("dataset.read_merge_ms", median(merge))
	p.set("dataset.write_json_ms", median(export))
	return nil
}

// buildWorld times one more construction of the shape's world.
func (p *prober) buildWorld() error {
	t0 := time.Now()
	if _, err := providers.BuildWorld(providers.WorldConfig{Size: p.w.Cfg.Size, Seed: p.w.Cfg.Seed}); err != nil {
		return err
	}
	p.set("providers.build_world_ms", float64(time.Since(t0))/1e6)
	return nil
}
