package tranco

import (
	"slices"
	"sync"
	"testing"
	"time"
)

func newSim() *Simulator {
	return NewSimulator(1000, 1)
}

func TestListSizeAndUniqueness(t *testing.T) {
	s := newSim()
	for _, date := range []time.Time{
		time.Date(2023, 5, 8, 0, 0, 0, 0, time.UTC),
		time.Date(2023, 9, 1, 0, 0, 0, 0, time.UTC),
	} {
		list := s.ListFor(date)
		if len(list) != 1000 {
			t.Fatalf("list size = %d", len(list))
		}
		seen := map[string]bool{}
		for _, d := range list {
			if seen[d] {
				t.Fatalf("duplicate domain %s on %s", d, date)
			}
			seen[d] = true
		}
	}
}

func TestListDeterminism(t *testing.T) {
	s1, s2 := newSim(), newSim()
	date := time.Date(2023, 6, 15, 0, 0, 0, 0, time.UTC)
	a, b := s1.ListFor(date), s2.ListFor(date)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic list at %d", i)
		}
	}
}

func TestDailyChurn(t *testing.T) {
	s := newSim()
	d1 := s.ListFor(time.Date(2023, 6, 1, 0, 0, 0, 0, time.UTC))
	d2 := s.ListFor(time.Date(2023, 6, 2, 0, 0, 0, 0, time.UTC))
	set1 := map[string]bool{}
	for _, d := range d1 {
		set1[d] = true
	}
	diff := 0
	for _, d := range d2 {
		if !set1[d] {
			diff++
		}
	}
	if diff == 0 {
		t.Error("no churn between consecutive days")
	}
	if diff > len(d2)/2 {
		t.Errorf("churn too high: %d of %d", diff, len(d2))
	}
}

func TestCoreStability(t *testing.T) {
	s := newSim()
	core := s.CoreSet()
	if len(core) == 0 {
		t.Fatal("empty core")
	}
	// Every core1 domain is present on every pre-change day sampled.
	days := []time.Time{
		time.Date(2023, 5, 10, 0, 0, 0, 0, time.UTC),
		time.Date(2023, 6, 20, 0, 0, 0, 0, time.UTC),
		time.Date(2023, 7, 30, 0, 0, 0, 0, time.UTC),
	}
	var lists [][]string
	for _, d := range days {
		lists = append(lists, s.ListFor(d))
	}
	overlap := Overlapping(lists)
	overlapSet := map[string]bool{}
	for _, d := range overlap {
		overlapSet[d] = true
	}
	for _, d := range s.core1[:50] {
		if !overlapSet[d] {
			t.Errorf("core1 domain %s missing from overlap", d)
		}
	}
}

func TestSourceChangeShiftsComposition(t *testing.T) {
	s := newSim()
	before := s.ListFor(SourceChangeDate.AddDate(0, 0, -1))
	after := s.ListFor(SourceChangeDate)
	bset := map[string]bool{}
	for _, d := range before {
		bset[d] = true
	}
	changed := 0
	for _, d := range after {
		if !bset[d] {
			changed++
		}
	}
	if changed == 0 {
		t.Error("source change had no effect on composition")
	}
}

func TestOverlapping(t *testing.T) {
	lists := [][]string{{"a", "b", "c"}, {"b", "c", "d"}, {"c", "b", "x"}}
	ov := Overlapping(lists)
	if len(ov) != 2 || ov[0] != "b" || ov[1] != "c" {
		t.Errorf("Overlapping = %v", ov)
	}
	if Overlapping(nil) != nil {
		t.Error("Overlapping(nil) != nil")
	}
}

func TestIsCore(t *testing.T) {
	s := newSim()
	if !s.IsCore(s.core1[0]) {
		t.Error("core1[0] not core")
	}
	if s.IsCore("definitely-not-a-domain") {
		t.Error("IsCore false positive")
	}
}

func TestUniverseCoversLists(t *testing.T) {
	s := newSim()
	universe := map[string]bool{}
	for _, d := range s.Universe() {
		universe[d] = true
	}
	for _, d := range s.ListFor(time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)) {
		if !universe[d] {
			t.Fatalf("listed domain %s outside universe", d)
		}
	}
}

// TestCanonListForMatchesListFor: the canonical www spellings ride the list
// index for index, each "www." + name + ".", with the list itself equal to
// ListFor's, on days before and after the source change, read by eight
// goroutines at once (the table is built once and never written again).
func TestCanonListForMatchesListFor(t *testing.T) {
	s := newSim()
	days := []time.Time{
		time.Date(2023, 5, 8, 0, 0, 0, 0, time.UTC),
		time.Date(2023, 9, 1, 0, 0, 0, 0, time.UTC),
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			day := days[g%len(days)].AddDate(0, 0, g)
			list, www := s.CanonListFor(day)
			if !slices.Equal(list, s.ListFor(day)) || len(www) != len(list) {
				t.Errorf("%s: CanonListFor's list is not ListFor's, or its spellings are %d for %d names", day, len(www), len(list))
				return
			}
			for i, name := range list {
				if www[i] != "www."+name+"." {
					t.Errorf("%s: rank %d is %q, spelt %q", day, i+1, name, www[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}
