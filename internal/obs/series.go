package obs

import (
	"sync"
	"time"
)

// Point is one sampled registry snapshot on the virtual timeline.
type Point struct {
	At    time.Time
	Label string
	Snap  *Snapshot
}

// Sampler captures labeled registry snapshots into a time series. Force
// is its one trigger: campaigns force a sample at each stage boundary
// inside a scan day, whose per-day replica clocks are deliberately frozen
// (see core.newDayContext), and drills force one per epoch. Campaign
// samplers run stable-only, so the collected series holds only
// schedule-independent metrics and pipelined runs merge byte-identically
// in commit order (the package determinism contract).
type Sampler struct {
	mu         sync.Mutex
	reg        *Registry
	clock      Clock
	stableOnly bool
	points     []Point
}

// NewSampler builds a sampler over reg, stamping points from clock.
func NewSampler(reg *Registry, clock Clock, stableOnly bool) *Sampler {
	return &Sampler{reg: reg, clock: clock, stableOnly: stableOnly}
}

// Force takes a labeled sample immediately.
func (s *Sampler) Force(label string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var now time.Time
	if s.clock != nil {
		now = s.clock.Now()
	}
	s.points = append(s.points, Point{At: now, Label: label, Snap: s.reg.snapshot(s.stableOnly)})
}

// Points returns the collected samples in capture order.
func (s *Sampler) Points() []Point {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Point(nil), s.points...)
}
