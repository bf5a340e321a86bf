package transport

import (
	"errors"
	"fmt"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dnswire"
	"repro/internal/obs"
	"repro/internal/simnet"
)

// trackedDialer wraps one frontend's dial and counts the dials that were
// not needed: a dial is needed only once the member's previous session has
// itself died. The dial lingers a little, so attempts that miss the
// session table together overlap in it unless the client serialises them.
type trackedDialer struct {
	dialer
	mu       sync.Mutex
	dials    int
	needless int
	last     *trackedSession
}

func (d *trackedDialer) dial(n *simnet.Network, ap netip.AddrPort, resumed bool) (session, int) {
	time.Sleep(50 * time.Microsecond)
	s, setup := d.dialer.dial(n, ap, resumed)
	d.mu.Lock()
	defer d.mu.Unlock()
	d.dials++
	if d.last != nil && !d.last.died.Load() {
		d.needless++
	}
	d.last = &trackedSession{session: s}
	return d.last, setup
}

// trackedSession marks itself dead when an exchange kills it (anything
// but a DoQ stream reset), before the client sees the error. Each
// exchange lingers too, so several attempts hold a session when it dies.
type trackedSession struct {
	session
	died atomic.Bool
}

func (s *trackedSession) Exchange(q, into *dnswire.Message, tr *obs.Trace) (bool, error) {
	time.Sleep(50 * time.Microsecond)
	stale, err := s.session.Exchange(q, into, tr)
	if err != nil && !errors.Is(err, ErrStreamReset) {
		if _, answered := err.(*answeredError); !answered {
			s.died.Store(true)
		}
	}
	return stale, err
}

// TestConcurrentDialsAndDrops runs 8 goroutines exchanging through a
// racing 2:1:1 fleet while its DoT and its DoQ member flap. Attempts that
// miss the session table at once must share one dial, and an attempt
// whose session died must not drop the fresh one another attempt has
// stored since: a member is dialed again only after its session died.
func TestConcurrentDialsAndDrops(t *testing.T) {
	client, fl, _, net, clock := newTestFleet(t, 4, BalanceP2, ProtoDoH, ProtoDoT, ProtoDoQ, ProtoDoH)
	client.Strategy = StrategyConfig{Kind: StrategyRace}
	dialers := make([]*trackedDialer, len(fl.Addrs))
	for i, ap := range fl.Addrs {
		svc, _ := net.Service(ap)
		dialers[i] = &trackedDialer{dialer: svc.(dialer)}
		net.RegisterService(ap, dialers[i])
	}
	const workers, queries, flaps = 8, 150, 40
	stop := make(chan struct{})
	flapped := make(chan struct{})
	go func() {
		defer close(flapped)
		for i := 0; i < flaps; i++ {
			for _, ap := range fl.Addrs[1:3] {
				net.SetAddrDown(ap.Addr(), true)
			}
			time.Sleep(100 * time.Microsecond)
			for _, ap := range fl.Addrs[1:3] {
				net.SetAddrDown(ap.Addr(), false)
			}
			// Lift the cooldowns so the flapping members keep drawing
			// attempts.
			clock.Advance(DefaultCooldown)
			select {
			case <-stop:
				return
			default:
				runtime.Gosched()
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pref := []Protocol{ProtoDoT, ProtoDoQ}[w%2]
			for i := 0; i < queries; i++ {
				q := dnswire.NewQuery(uint16(w*queries+i+1), fmt.Sprintf("w%d-%d.test", w, i%20), dnswire.TypeA, false)
				if m, err := client.ExchangePreferring(q, pref); err == nil {
					client.Recycle(m)
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-flapped
	for i, d := range dialers {
		if d.needless > 0 || d.dials == 0 {
			t.Errorf("member %d (%v): %d dials, %d of them while its session was alive",
				i, fl.Pool.ups[i].Proto, d.dials, d.needless)
		}
	}
}
