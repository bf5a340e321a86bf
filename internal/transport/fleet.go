package transport

import (
	"net/netip"
	"time"

	"repro/internal/obs"
	"repro/internal/simnet"
)

// FleetConfig assembles a Fleet: the shared answer-cache geometry and
// lifecycle, the pool's load-balancing policy and seed, the client's
// resolution strategy, the frontends' failure cooldown, and the client's
// latency model.
type FleetConfig struct {
	// Balance selects the pool's load-balancing policy (the zero value
	// is power-of-two-choices).
	Balance Balance
	// Strategy selects and parameterizes the client's resolution
	// strategy (the zero value is serial failover).
	Strategy StrategyConfig
	// Seed drives the balancer's random draws.
	Seed int64
	// Cache is the shared answer cache's geometry and lifecycle policy.
	Cache CacheConfig
	// FailureCooldown benches a frontend's recursor after a hard failure.
	FailureCooldown time.Duration
	// Latency replaces the client's latency model (see Client.Latency);
	// nil keeps newClient's 2–20 ms SyntheticLatency band.
	Latency func(*Upstream) time.Duration
	// ChargeLatency charges sampled latencies (and protocol setup costs)
	// to the network's virtual clock. See Client.ChargeLatency for when
	// to leave it off.
	ChargeLatency bool
	// Override registers frontends as view-local service overrides
	// (simnet.Network.OverrideService) instead of shared registrations —
	// how per-day campaign replicas stand their fleets up on network
	// views without touching the shared registry.
	Override bool
	// Tracer, when non-nil, head-samples the client's exchanges into
	// span traces (and, when it carries a TailConfig, retains anomalous
	// exchanges from the outcomes the client reports to it).
	Tracer *obs.Tracer
	// Recorder, when non-nil, is the fleet's flight recorder: the client
	// and every frontend emit typed anomaly events into its live ring.
	Recorder *obs.Recorder
}

// Fleet is a protocol-agnostic encrypted-DNS serving fleet: any mix of
// DoH, DoT, and DoQ frontends sharing one sharded answer cache, one
// load-balanced upstream pool, and one stub client. It is the hoisted,
// protocol-independent successor of the PR 1–3 DoH-only serving layer:
// the frontends differ only in envelope codec, so cache lifecycle,
// failover, and lifecycle counters behave identically across protocols.
type Fleet struct {
	Net    *simnet.Network
	Cache  *Cache
	Pool   *Pool
	Client *Client

	// Metrics is the fleet's own telemetry registry, on the fleet clock:
	// every frontend, cache, pool, and client counter is registered here
	// (the struct accessors below remain as thin views over the same
	// handles). Always non-nil.
	Metrics *obs.Registry

	// Recorder is the fleet's flight recorder (nil when the config left
	// it off: event emission costs one nil check).
	Recorder *obs.Recorder

	// Frontends are the registered services in Add order; Addrs holds
	// the parallel addresses.
	Frontends []*Frontend
	Addrs     []netip.AddrPort

	override bool
	cooldown time.Duration
}

// NewFleet creates an empty fleet over the network; frontends are wired
// in with Add.
func NewFleet(net *simnet.Network, clock *simnet.Clock, cfg FleetConfig) *Fleet {
	client := newClient(net, newPool(clock, cfg.Balance, cfg.Seed))
	client.Strategy = cfg.Strategy
	if cfg.Latency != nil {
		client.Latency = cfg.Latency
	}
	client.ChargeLatency = cfg.ChargeLatency
	client.Tracer = cfg.Tracer
	client.Recorder = cfg.Recorder
	fl := &Fleet{
		Net: net, Cache: NewCacheWith(clock, cfg.Cache),
		Pool: client.Pool, Client: client, Metrics: obs.NewRegistry(clock),
		Recorder: cfg.Recorder,
		override: cfg.Override, cooldown: cfg.FailureCooldown,
	}
	fl.bindMetrics()
	return fl
}

// bindMetrics registers the fleet's shared components onto the registry:
// the client's per-exchange counters, snapshot-time views over the
// mutex-guarded cache and pool stats, and fleet-wide aggregates. It also
// declares which metric names are volatile — dependent on within-day
// worker interleaving — so campaign series built from StableSnapshot
// stay byte-identical between serial and pipelined runs (the same
// winner-side-only rationale as dataset.ServingSnapshot).
func (fl *Fleet) bindMetrics() {
	reg := fl.Metrics
	fl.Client.bindMetrics(reg)
	reg.RegisterView(func(add obs.ViewAdd) {
		cs := fl.Cache.Stats()
		add("cache_entries", obs.KindGauge, float64(cs.Entries))
		add("cache_evictions_total", obs.KindCounter, float64(cs.Evictions))
		add("cache_expirations_total", obs.KindCounter, float64(cs.Expirations))
		add("cache_negative_entries", obs.KindGauge, float64(cs.NegativeEntries))
	})
	reg.RegisterView(func(add obs.ViewAdd) {
		add("pool_members", obs.KindGauge, float64(fl.Pool.size()))
		add("pool_healthy", obs.KindGauge, float64(fl.Pool.healthy()))
		for _, us := range fl.Pool.Stats() {
			labels := []obs.Label{obs.L("member", us.Name), obs.L("proto", us.Proto.String())}
			add("pool_member_queries_total", obs.KindCounter, float64(us.Queries), labels...)
			add("pool_member_failures_total", obs.KindCounter, float64(us.Failures), labels...)
			add("pool_member_rtt_seconds", obs.KindGauge, us.RTT.Seconds(), labels...)
			add("pool_member_consec_fails", obs.KindGauge, float64(us.ConsecFails), labels...)
			add("pool_member_cooldown_seconds", obs.KindGauge, us.CooldownTotal.Seconds(), labels...)
		}
	})
	reg.RegisterView(func(add obs.ViewAdd) {
		total := fl.TotalStats()
		add("fleet_prefetches_total", obs.KindCounter, float64(total.Prefetches))
		add("fleet_upstream_failures_total", obs.KindCounter, float64(total.UpstreamFailures))
	})
	// Everything tied to which frontend a given attempt hit — or to how
	// many attempts an exchange made — varies with scanner-worker
	// interleaving even under a fixed seed. The stable set is the
	// winner-side per-exchange counters, the fleet-aggregate prefetch and
	// upstream-failure totals (every arm fires exactly once per triggering
	// exchange regardless of scheduling), and the pool's membership
	// gauges.
	reg.SetVolatile(
		"frontend_served_total", "frontend_cache_hits_total",
		"frontend_stale_served_total", "frontend_negative_hits_total",
		"frontend_prefetches_total", "frontend_upstream_failures_total",
		"cache_entries", "cache_evictions_total", "cache_expirations_total",
		"cache_negative_entries",
		"strategy_attempts_total", "strategy_races_total",
		"strategy_losers_cancelled_total", "strategy_wasted_total",
		"strategy_wins_total",
		"pool_member_queries_total", "pool_member_failures_total",
		"pool_member_rtt_seconds", "pool_member_consec_fails",
		"pool_member_cooldown_seconds",
		"exchange_latency_seconds",
	)
}

// Add stands up one frontend speaking proto over handler at ap, registers
// it on the network (or as a view-local override), and joins it to the
// pool. It returns the frontend for stats and chaos wiring.
func (fl *Fleet) Add(proto Protocol, name string, handler simnet.DNSHandler, ap netip.AddrPort) *Frontend {
	fe := &Frontend{
		Name: name, Proto: proto, Handler: handler,
		Cache: fl.Cache, FailureCooldown: fl.cooldown, Recorder: fl.Recorder,
	}
	if fl.override {
		fl.Net.OverrideService(ap, fe)
	} else {
		fl.Net.RegisterService(ap, fe)
	}
	fl.Pool.Add(name, ap, proto)
	fe.bindMetrics(fl.Metrics)
	fl.Frontends = append(fl.Frontends, fe)
	fl.Addrs = append(fl.Addrs, ap)
	return fe
}

// StrategyStats snapshots the fleet client's resolution-strategy
// telemetry: races fired, losers cancelled, wasted upstream
// queries, and the winner-protocol distribution.
func (fl *Fleet) StrategyStats() StrategyStats {
	return fl.Client.StrategyStats()
}

// TotalStats aggregates every frontend into one fleet-wide counter set.
func (fl *Fleet) TotalStats() FrontendStats {
	var agg FrontendStats
	agg.Name = "fleet"
	for _, f := range fl.Frontends {
		agg.Add(f.Stats())
	}
	return agg
}
