package dataset

import (
	"bytes"
	"encoding/json"
	"net/netip"
	"sync"
	"testing"
	"time"
	"unsafe"
)

func day(y, m, d int) time.Time { return time.Date(y, time.Month(m), d, 0, 0, 0, 0, time.UTC) }

func sampleSnapshot(date time.Time, kind string) *Snapshot {
	return &Snapshot{
		Date: date, Kind: kind, Total: 100,
		Obs: map[string]*Observation{
			"a.com.": {
				Name: "a.com.", Rank: 1,
				HTTPS: []HTTPSRecord{{Priority: 1, Target: ".", ALPN: []string{"h2"},
					V4Hints: []netip.Addr{netip.MustParseAddr("1.2.3.4")}}},
				Signed: true, AD: true,
				A: []netip.Addr{netip.MustParseAddr("1.2.3.4")},
			},
		},
	}
}

func TestSnapshotStorageAndDays(t *testing.T) {
	s := NewStore()
	d1, d2 := day(2023, 5, 8), day(2023, 5, 9)
	s.AddSnapshot(sampleSnapshot(d1, "apex"))
	s.AddSnapshot(sampleSnapshot(d2, "apex"))
	s.AddSnapshot(sampleSnapshot(d1, "www"))

	days := s.Days("apex")
	if len(days) != 2 || !days[0].Equal(d1) || !days[1].Equal(d2) {
		t.Fatalf("Days = %v", days)
	}
	if len(s.Days("www")) != 1 {
		t.Error("www days wrong")
	}
	snap, ok := s.SnapshotFor("apex", d1)
	if !ok || snap.Total != 100 {
		t.Fatalf("SnapshotFor = %+v, %v", snap, ok)
	}
	if _, ok := s.SnapshotFor("apex", day(2024, 1, 1)); ok {
		t.Error("phantom snapshot")
	}
	// Same-day replacement.
	s.AddSnapshot(&Snapshot{Date: d1.Add(3 * time.Hour), Kind: "apex", Total: 7, Obs: map[string]*Observation{}})
	snap, _ = s.SnapshotFor("apex", d1)
	if snap.Total != 7 {
		t.Error("same-day snapshot not replaced")
	}
}

func TestNSAndTrancoStorage(t *testing.T) {
	s := NewStore()
	d := day(2023, 10, 11)
	s.AddNSSnapshot(&NSSnapshot{Date: d, Servers: map[string]*NSObservation{
		"ns1.x.com.": {Host: "ns1.x.com.", Org: "Cloudflare"},
	}})
	s.AddTrancoList(d, []string{"a.com", "b.com"})

	if len(s.NSDays()) != 1 {
		t.Fatal("NSDays wrong")
	}
	snap, ok := s.NSSnapshotFor(d)
	if !ok || snap.Servers["ns1.x.com."].Org != "Cloudflare" {
		t.Fatalf("NSSnapshotFor = %+v, %v", snap, ok)
	}
	list, ok := s.TrancoListFor(d)
	if !ok || len(list) != 2 {
		t.Fatalf("TrancoListFor = %v, %v", list, ok)
	}
}

func TestAppendersAndCopies(t *testing.T) {
	s := NewStore()
	s.AddECH(ECHObservation{Domain: "a.com.", KeyHash: 1})
	s.AddProbes(ProbeResult{Domain: "a.com.", Mismatch: true})
	s.AddValidation(ValidationResult{Domain: "a.com.", Signed: true, Result: "insecure"})

	if len(s.ECHObservations()) != 1 || len(s.Probes()) != 1 || len(s.Validation()) != 1 {
		t.Fatal("appenders broken")
	}
	// Returned slices are copies.
	probes := s.Probes()
	probes[0].Domain = "evil.com."
	if s.Probes()[0].Domain != "a.com." {
		t.Error("Probes aliases internal state")
	}

	// Reads return append order, whatever the domains; telemetry reads
	// sort by (scope, date), whatever the insertion order.
	s.AddECH(ECHObservation{Domain: "z.com.", KeyHash: 2}, ECHObservation{Domain: "b.com.", KeyHash: 3})
	s.AddECH(ECHObservation{Domain: "a.com.", KeyHash: 4})
	for i, o := range s.ECHObservations() {
		if o.KeyHash != uint64(i+1) {
			t.Fatalf("ECH read order diverges from append order at %d: %+v", i, o)
		}
	}
	s.AddTelemetry(&TelemetrySeries{Scope: "hourly-ech", Date: day(2023, 7, 21)})
	s.AddTelemetry(&TelemetrySeries{Scope: "daily", Date: day(2023, 7, 22)})
	s.AddTelemetry(&TelemetrySeries{Scope: "daily", Date: day(2023, 7, 21)})
	all := s.TelemetryAll()
	if len(all) != 3 || all[0].Scope != "daily" || !all[0].Date.Equal(day(2023, 7, 21)) ||
		all[1].Scope != "daily" || all[2].Scope != "hourly-ech" {
		t.Fatalf("TelemetryAll not sorted by (scope, date): %+v", all)
	}
}

func TestObservationHasHTTPS(t *testing.T) {
	o := &Observation{}
	if o.HasHTTPS() {
		t.Error("empty observation has HTTPS")
	}
	o.HTTPS = []HTTPSRecord{{Priority: 0, Target: "b.com."}}
	if !o.HasHTTPS() {
		t.Error("observation with record lacks HTTPS")
	}
	if !o.HTTPS[0].AliasMode() {
		t.Error("priority 0 not AliasMode")
	}
	if o.HasECH() {
		t.Error("observation without an ech parameter has ECH")
	}
	o.HTTPS = append(o.HTTPS, HTTPSRecord{Priority: 1, Target: ".", HasECH: true})
	if !o.HasECH() {
		t.Error("ech on the second record not seen")
	}
}

// TestHintReadsShareOneRecord: an observation whose hints sit in one
// record reads that record's slice, no copy; hints spread over two records
// are joined into a new slice, in record order, that leaves both records'
// slices as they were.
func TestHintReadsShareOneRecord(t *testing.T) {
	a, b := netip.MustParseAddr("192.0.2.1"), netip.MustParseAddr("192.0.2.2")
	one := []netip.Addr{a}
	o := &Observation{HTTPS: []HTTPSRecord{{Priority: 1}, {Priority: 2, V4Hints: one}}}
	if h := o.V4Hints(); len(h) != 1 || unsafe.SliceData(h) != unsafe.SliceData(one) {
		t.Errorf("one hinted record read as %v at %p, want its slice at %p", h, unsafe.SliceData(h), unsafe.SliceData(one))
	}
	if o.V6Hints() != nil {
		t.Error("no ipv6hint read as a non-nil list")
	}
	roomy := append(make([]netip.Addr, 0, 4), a)
	o.HTTPS = []HTTPSRecord{{Priority: 1, V4Hints: roomy}, {Priority: 2, V4Hints: []netip.Addr{b}}}
	h := o.V4Hints()
	if len(h) != 2 || h[0] != a || h[1] != b || unsafe.SliceData(h) == unsafe.SliceData(roomy) {
		t.Errorf("two hinted records read as %v at %p (first record's %p)", h, unsafe.SliceData(h), unsafe.SliceData(roomy))
	}
	if roomy[:2][1] == b {
		t.Error("joining two records wrote into the first record's array")
	}
}

// TestAppendTablesNeverRegrow: a table appended past many chunks reads back
// every record in arrival order, and records already held stay where they
// are: a growing table copies nothing it holds.
func TestAppendTablesNeverRegrow(t *testing.T) {
	s := NewStore()
	if got := s.ECHObservations(); got == nil || len(got) != 0 {
		t.Fatalf("empty table read as %#v, want an empty non-nil slice", got)
	}
	s.AddECH(ECHObservation{KeyHash: 0})
	first := &s.ech.chunks[0][0]
	const n = 3*maxChunk + 7
	for i := 1; i < n; i += 5 {
		batch := make([]ECHObservation, 0, 5)
		for j := i; j < min(i+5, n); j++ {
			batch = append(batch, ECHObservation{KeyHash: uint64(j)})
		}
		s.AddECH(batch...)
	}
	if &s.ech.chunks[0][0] != first {
		t.Error("the first record moved: the table regrew a chunk")
	}
	got := s.ECHObservations()
	if len(got) != n {
		t.Fatalf("%d records read back, want %d", len(got), n)
	}
	for i, o := range got {
		if o.KeyHash != uint64(i) {
			t.Fatalf("record %d read back as %d", i, o.KeyHash)
		}
	}
	for _, c := range s.ech.chunks {
		if cap(c) > maxChunk {
			t.Fatalf("a chunk of %d records, bound %d", cap(c), maxChunk)
		}
	}
}

func TestWriteJSON(t *testing.T) {
	s := NewStore()
	d := day(2023, 5, 8)
	s.AddSnapshot(sampleSnapshot(d, "apex"))
	s.AddSnapshot(sampleSnapshot(d, "www"))
	s.AddNSSnapshot(&NSSnapshot{Date: d, Servers: map[string]*NSObservation{}})
	s.AddECH(ECHObservation{Time: d, Domain: "a.com.", KeyHash: 42})
	s.AddValidation(ValidationResult{Domain: "a.com.", Result: "secure"})

	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	for _, key := range []string{"apex", "www", "ns", "ech", "validation"} {
		if decoded[key] == nil {
			t.Errorf("JSON missing %q", key)
		}
	}
}

// TestBatchAppendContiguous checks that one Add batch's records stay
// consecutive in the read order even when batches from other goroutines
// interleave with it.
func TestBatchAppendContiguous(t *testing.T) {
	s := NewStore()
	const writers, batches, batchLen = 8, 20, 5
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				batch := make([]ECHObservation, batchLen)
				for i := range batch {
					batch[i] = ECHObservation{
						Domain:  []string{"a.com.", "b.org.", "c.net.", "d.io."}[i%4],
						KeyHash: uint64(w*1000 + b*10 + i),
					}
				}
				s.AddECH(batch...)
			}
		}(w)
	}
	wg.Wait()

	obs := s.ECHObservations()
	if len(obs) != writers*batches*batchLen {
		t.Fatalf("lost records: %d", len(obs))
	}
	for i := 0; i < len(obs); i += batchLen {
		base := obs[i].KeyHash
		for j := 1; j < batchLen; j++ {
			if obs[i+j].KeyHash != base+uint64(j) {
				t.Fatalf("batch at %d not contiguous: %d then %d", i, base, obs[i+j].KeyHash)
			}
		}
	}
}

// TestConcurrentReadDuringAppend drives readers across every accessor
// while writers append — meaningful only under -race, where it pins the
// store's locking.
func TestConcurrentReadDuringAppend(t *testing.T) {
	s := NewStore()
	d := day(2023, 7, 21)
	s.AddSnapshot(sampleSnapshot(d, "apex"))
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				dd := d.AddDate(0, 0, i%7)
				s.AddECH(ECHObservation{Time: dd, Domain: "a.com.", KeyHash: uint64(i)})
				s.AddProbes(ProbeResult{Date: dd, Domain: "b.org."})
				s.AddSnapshot(sampleSnapshot(dd, "apex"))
				s.AddServing(&ServingSnapshot{Date: dd})
				s.AddTelemetry(&TelemetrySeries{Scope: "daily", Date: dd})
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				s.ECHObservations()
				s.Probes()
				s.Validation()
				s.Days("apex")
				s.SnapshotFor("apex", d)
				s.ServingDays()
				s.TelemetryAll()
				var buf bytes.Buffer
				if err := s.WriteJSON(&buf); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestAnomalyCaptureStorage pins the anomaly-capture table: per-day
// upsert semantics, sorted AnomalyDays, and a WriteJSON export that
// carries the bundle in date order.
func TestAnomalyCaptureStorage(t *testing.T) {
	s := NewStore()
	d1 := time.Date(2024, 1, 25, 0, 0, 0, 0, time.UTC)
	d2 := d1.AddDate(0, 0, 7)
	s.AddAnomaly(&AnomalyCapture{
		Date: d2, Exchanges: 100, Errors: 3, StaleServed: 8,
		Availability: 0.97, StaleRatio: 0.08, Violations: 1,
		Events: []AnomalyEvent{{Key: "client.stale", Count: 8}},
		Traces: []AnomalyTrace{{Name: "flap.test.", Flags: []string{"stale"}}},
	})
	s.AddAnomaly(&AnomalyCapture{Date: d1, Exchanges: 50, Availability: 1})

	days := s.AnomalyDays()
	if len(days) != 2 || !days[0].Equal(d1) || !days[1].Equal(d2) {
		t.Fatalf("anomaly days = %v", days)
	}
	cap2, ok := s.AnomalyFor(d2)
	if !ok || cap2.Violations != 1 || len(cap2.Traces) != 1 {
		t.Fatalf("AnomalyFor(d2) = %+v, %v", cap2, ok)
	}
	if _, ok := s.AnomalyFor(d1.AddDate(0, 0, 1)); ok {
		t.Fatal("capture reported for a day without one")
	}

	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var e struct {
		Anomalies []*AnomalyCapture `json:"anomalies"`
	}
	if err := json.Unmarshal(buf.Bytes(), &e); err != nil {
		t.Fatal(err)
	}
	if len(e.Anomalies) != 2 || !e.Anomalies[0].Date.Equal(d1) {
		t.Fatalf("exported anomalies = %+v", e.Anomalies)
	}
	if e.Anomalies[1].Events[0].Key != "client.stale" {
		t.Fatalf("exported events = %+v", e.Anomalies[1].Events)
	}
}
