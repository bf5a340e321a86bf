package transport

import (
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"sync"
	"time"

	"repro/internal/dnswire"
	"repro/internal/simnet"
)

// Balance selects how the pool orders upstreams for a query: random
// pairs weighted by measured RTT (dnscrypt-proxy's default
// server-selection strategy) or strict rotation. (Resolution policy —
// how many of the ordered candidates are attempted or raced — is the
// client's Strategy; the balancer only produces the ordering.)
type Balance int

const (
	// BalanceP2 is power-of-two-choices: draw two random healthy
	// upstreams, use the one with the lower smoothed RTT. The fleet
	// default — near-optimal load spread with minimal coordination.
	BalanceP2 Balance = iota
	// BalanceRoundRobin rotates through healthy upstreams.
	BalanceRoundRobin
)

// String names the balancer for stats output.
func (b Balance) String() string {
	switch b {
	case BalanceP2:
		return "p2"
	case BalanceRoundRobin:
		return "roundrobin"
	default:
		return fmt.Sprintf("balance(%d)", int(b))
	}
}

// ewmaWeight is the smoothing factor for RTT averaging, matching an
// N≈10-sample moving window (the decay dnscrypt-proxy uses).
const ewmaWeight = 2.0 / 11.0

// DefaultCooldown is how long (virtual time) a failed upstream is benched
// before the pool offers it again.
const DefaultCooldown = 60 * time.Second

// Upstream is one pool member: a frontend address, the envelope protocol
// it speaks, and its measured state. All mutable fields are guarded by
// the owning pool's lock.
type Upstream struct {
	Name  string
	Addr  netip.AddrPort
	Proto Protocol

	rttSeconds float64 // EWMA; 0 until the first sample
	sampled    bool
	queries    uint64
	failures   uint64
	downUntil  time.Time

	// consecFails counts failures since the last successful exchange.
	consecFails int

	// cooldownTotal accumulates the virtual time the member has actually
	// spent benched — scheduled cooldown minus any remainder forgiven by
	// a successful exchange. It is the occupancy column of the member's
	// health scorecard.
	cooldownTotal time.Duration

	// synthSeed caches the FNV-1a hash of Addr.String() for
	// SyntheticLatency, computed once at Pool.Add so the latency model
	// costs no per-draw allocation. Zero means unregistered (a member
	// built outside Add); the draw falls back to hashing on the fly.
	synthSeed uint64
}

// UpstreamStats is a read-only snapshot of one member — including its
// health scorecard: the smoothed RTT estimate, the current
// consecutive-failure streak, and the cumulative virtual time spent in
// cooldown.
type UpstreamStats struct {
	Name     string
	Addr     netip.AddrPort
	Proto    Protocol
	Queries  uint64
	Failures uint64
	RTT      time.Duration
	Down     bool
	// ConsecFails is the member's current failure streak (reset by any
	// successful exchange).
	ConsecFails int
	// CooldownTotal is the virtual time the member has spent benched,
	// net of cooldown remainders forgiven by successful exchanges.
	CooldownTotal time.Duration
}

// Pool is a load-balanced, protocol-agnostic set of encrypted-DNS
// upstreams with failover bookkeeping: DoH, DoT, and DoQ members mix
// freely, and the balancers see only addresses and RTTs. A failed member
// is benched for DefaultCooldown and never removed.
type Pool struct {
	clock   *simnet.Clock
	balance Balance

	mu     sync.Mutex
	ups    []*Upstream
	rng    *rand.Rand
	rrNext int
}

// newPool creates an empty pool using the given balancer. The seed
// drives the balancer's random draws, keeping simulations replayable.
func newPool(clock *simnet.Clock, balance Balance, seed int64) *Pool {
	return &Pool{clock: clock, balance: balance, rng: rand.New(rand.NewSource(seed))}
}

// Add appends a member speaking the given envelope protocol and returns
// it.
func (p *Pool) Add(name string, addr netip.AddrPort, proto Protocol) *Upstream {
	p.mu.Lock()
	defer p.mu.Unlock()
	u := &Upstream{Name: name, Addr: addr, Proto: proto, synthSeed: dnswire.FNV1a(addr.String())}
	p.ups = append(p.ups, u)
	return u
}

// size returns the member count.
func (p *Pool) size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.ups)
}

// healthy returns how many members are currently un-benched — the fleet
// capacity a chaos run watches recover after flaps.
func (p *Pool) healthy() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	now := p.clock.Now()
	n := 0
	for _, u := range p.ups {
		if !u.downUntil.After(now) {
			n++
		}
	}
	return n
}

// candidates returns the failover order for a query and how many of its
// members lead it healthy: the balancer's pick first, the remaining
// healthy members next, and benched members last so a fully-down fleet
// still gets retried rather than erroring instantly. The client's
// resolver consumes this ordering — serial failover walks it, racing
// pairs within its healthy head — so one lock and one clock read decide
// both.
//
// The ordering is written into dst (reused from length zero, grown as
// needed; nil allocates) so per-exchange callers can recycle one buffer
// instead of allocating a fresh ordering per query.
//
// pref is a per-caller protocol preference: members speaking pref are
// stable-partitioned to the front of the healthy segment (and of the
// benched tail), so a client that prefers, say, DoQ fails over within its
// protocol before crossing to another — the per-stub preference the
// workload engine deals across its simulated population. ProtoAny keeps
// the pool's ordering untouched; the preference never promotes a benched
// member over a healthy one.
func (p *Pool) candidates(dst []*Upstream, pref Protocol) ([]*Upstream, int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	now := p.clock.Now()
	dst = dst[:0]
	for _, u := range p.ups {
		if !u.downUntil.After(now) {
			dst = append(dst, u)
		}
	}
	healthy := len(dst)
	for _, u := range p.ups {
		if u.downUntil.After(now) {
			dst = append(dst, u)
		}
	}
	if healthy > 0 {
		// Rotate the balancer's pick to the front in place, keeping the
		// rest of the healthy ordering intact.
		pick := p.pick(dst[:healthy])
		top := dst[pick]
		copy(dst[1:pick+1], dst[:pick])
		dst[0] = top
	}
	// Benched members that fail soonest-to-recover first.
	benched := dst[healthy:]
	// slices.SortFunc, not sort.Slice: the latter allocates its
	// reflect-based swapper on every call, even with nothing to sort.
	slices.SortFunc(benched, func(a, b *Upstream) int { return a.downUntil.Compare(b.downUntil) })
	if pref != ProtoAny {
		preferProto(dst[:healthy], pref)
		preferProto(benched, pref)
	}
	return dst, healthy
}

// preferProto stable-partitions seg so members speaking pref come
// first, preserving relative order on both sides. Fleets are small, so
// the shift-based partition beats allocating a scratch slice.
func preferProto(seg []*Upstream, pref Protocol) {
	k := 0
	for i, u := range seg {
		if u.Proto != pref {
			continue
		}
		if i != k {
			copy(seg[k+1:i+1], seg[k:i])
			seg[k] = u
		}
		k++
	}
}

// explorationN makes the p2 balancer pick a uniformly random member one
// draw in every explorationN: a member whose EWMA was seeded by one slow
// (e.g. cold-cache) sample only refreshes its estimate when traffic
// reaches it, so without exploration it could be starved forever.
const explorationN = 16

// pick selects an index into healthy per the balancer. Caller holds p.mu.
func (p *Pool) pick(healthy []*Upstream) int {
	n := len(healthy)
	if n == 1 {
		return 0
	}
	switch p.balance {
	case BalanceP2:
		if p.rng.Intn(explorationN) == 0 {
			return p.rng.Intn(n)
		}
		a := p.rng.Intn(n)
		b := p.rng.Intn(n - 1)
		if b >= a {
			b++
		}
		if healthy[b].effectiveRTT() < healthy[a].effectiveRTT() {
			return b
		}
		return a
	case BalanceRoundRobin:
		p.rrNext++
		return (p.rrNext - 1) % n
	default:
		return 0
	}
}

// effectiveRTT orders members for the p2 balancer; unsampled
// members sort first so new frontends get probed promptly.
func (u *Upstream) effectiveRTT() float64 {
	if !u.sampled {
		return -1
	}
	return u.rttSeconds
}

// observeRTT folds a latency sample into the member's moving average. A
// sample means the member just completed an exchange, so any bench state
// is cleared: a demonstrably-serving upstream is healthy.
func (p *Pool) observeRTT(u *Upstream, d time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	sample := d.Seconds()
	if !u.sampled {
		u.rttSeconds, u.sampled = sample, true
	} else {
		u.rttSeconds = u.rttSeconds*(1-ewmaWeight) + sample*ewmaWeight
	}
	u.queries++
	u.consecFails = 0
	// A successful exchange forgives the rest of any running cooldown;
	// the occupancy scorecard only charges time actually served.
	if now := p.clock.Now(); u.downUntil.After(now) {
		u.cooldownTotal -= u.downUntil.Sub(now)
	}
	u.downUntil = time.Time{}
}

// markFailed benches the member for DefaultCooldown.
func (p *Pool) markFailed(u *Upstream) {
	p.mu.Lock()
	defer p.mu.Unlock()
	u.failures++
	u.consecFails++
	now := p.clock.Now()
	until := now.Add(DefaultCooldown)
	// Charge only the cooldown extension to the occupancy scorecard: a
	// re-failure mid-bench extends the window, it does not double-bill it.
	start := now
	if u.downUntil.After(start) {
		start = u.downUntil
	}
	if until.After(start) {
		u.cooldownTotal += until.Sub(start)
	}
	u.downUntil = until
}

// SyntheticLatency returns a deterministic per-member latency source for
// Client.Latency: each upstream gets a stable pseudo-random RTT in
// [base, base+spread), derived from its address. It stands in for network
// distance in simulations that need replayable EWMA/P2 routing.
func SyntheticLatency(base, spread time.Duration) func(*Upstream) time.Duration {
	return func(u *Upstream) time.Duration {
		if spread <= 0 {
			return base
		}
		h := u.synthSeed
		if h == 0 {
			h = dnswire.FNV1a(u.Addr.String())
		}
		return base + time.Duration(h%uint64(spread))
	}
}

// Stats snapshots every member.
func (p *Pool) Stats() []UpstreamStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	now := p.clock.Now()
	out := make([]UpstreamStats, len(p.ups))
	for i, u := range p.ups {
		out[i] = UpstreamStats{
			Name:          u.Name,
			Addr:          u.Addr,
			Proto:         u.Proto,
			Queries:       u.queries,
			Failures:      u.failures,
			RTT:           time.Duration(u.rttSeconds * float64(time.Second)),
			Down:          u.downUntil.After(now),
			ConsecFails:   u.consecFails,
			CooldownTotal: u.cooldownTotal,
		}
	}
	return out
}
