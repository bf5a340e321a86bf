package analysis

import (
	"iter"
	"strings"
	"time"

	"repro/internal/dataset"
)

// population is the rule by which every per-day figure and table counts
// domains; no analysis walks a snapshot any other way.
//   - A counted day is a scanned day of the kind with a stored snapshot.
//     A name-server population (ns) counts the NS-measurement days of the
//     apex list instead, and carries each day's NS scan for attribution.
//   - On a counted day, an adopter is an observation holding HTTPS records.
//   - With an overlapping set (OverlappingSets' keys: the list spelling, no
//     trailing dot), only the adopters whose apex is in the set count.
type population struct {
	kind    string // "apex" or "www"
	ns      bool
	overlap map[string]bool // nil: the whole daily list
}

// popDay is one counted day of a population.
type popDay struct {
	date time.Time
	ns   *dataset.NSSnapshot // the day's NS scan; nil outside an ns population
	snap *dataset.Snapshot
	pop  population
}

// on returns the population's day at date, if it is a counted one.
func (p population) on(store *dataset.Store, date time.Time) (popDay, bool) {
	snap, ok := store.SnapshotFor(p.kind, date)
	if !ok {
		return popDay{}, false
	}
	d := popDay{date: date, snap: snap, pop: p}
	if p.ns {
		d.ns, _ = store.NSSnapshotFor(date)
	}
	return d, true
}

// days yields the population's counted days in date order.
func (p population) days(store *dataset.Store) iter.Seq[popDay] {
	return func(yield func(popDay) bool) {
		dates := store.Days(p.kind)
		if p.ns {
			dates = store.NSDays()
		}
		for _, date := range dates {
			if d, ok := p.on(store, date); ok && !yield(d) {
				return
			}
		}
	}
}

// member reports whether the observation key of the population's kind
// names a domain of its overlapping set; every name is a member of the
// whole list.
func (p population) member(name string) bool {
	if p.overlap == nil {
		return true
	}
	apex := strings.TrimSuffix(name, ".")
	if p.kind == "www" {
		apex = strings.TrimPrefix(apex, "www.")
	}
	return p.overlap[apex]
}

// adopters yields the day's adopters by observation key.
func (d popDay) adopters() iter.Seq2[string, *dataset.Observation] {
	return func(yield func(string, *dataset.Observation) bool) {
		for name, obs := range d.snap.Obs {
			if obs.HasHTTPS() && d.pop.member(name) && !yield(name, obs) {
				return
			}
		}
	}
}

// lookup returns the day's observation of name, nil if there is none, and
// whether it counts as an adopter.
func (d popDay) lookup(name string) (*dataset.Observation, bool) {
	obs := d.snap.Obs[name]
	return obs, obs != nil && obs.HasHTTPS() && d.pop.member(name)
}

// share is the population's daily series, one point per counted day, of the
// percentage of adopters passing of among the adopters passing in (nil:
// every adopter).
func (p population) share(store *dataset.Store, name string, in, of func(*dataset.Observation) bool) Series {
	s := Series{Name: name}
	for d := range p.days(store) {
		num, den := 0, 0
		for _, obs := range d.adopters() {
			if in == nil || in(obs) {
				den++
				if of(obs) {
					num++
				}
			}
		}
		s.Points = append(s.Points, Point{d.date, pct(num, den)})
	}
	return s
}
