package dataset

import (
	"bufio"
	"encoding/json"
	"io"
	"net/netip"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"
)

// HTTPSRecord is the compact summary of one observed HTTPS resource record.
type HTTPSRecord struct {
	Priority  uint16       `json:"priority"`
	Target    string       `json:"target"`
	ALPN      []string     `json:"alpn,omitempty"`
	NoDefALPN bool         `json:"no_default_alpn,omitempty"`
	Port      uint16       `json:"port,omitempty"`
	HasPort   bool         `json:"has_port,omitempty"`
	V4Hints   []netip.Addr `json:"ipv4hint,omitempty"`
	V6Hints   []netip.Addr `json:"ipv6hint,omitempty"`
	HasECH    bool         `json:"ech,omitempty"`
	// ECHConfigID and ECHKeyHash identify the ECH key for rotation
	// tracking without storing the full config.
	ECHConfigID   uint8  `json:"ech_config_id,omitempty"`
	ECHKeyHash    uint64 `json:"ech_key_hash,omitempty"`
	ECHPublicName string `json:"ech_public_name,omitempty"`
}

// AliasMode reports whether the record is in AliasMode.
func (r HTTPSRecord) AliasMode() bool { return r.Priority == 0 }

// Observation is one domain's scan result on one day.
type Observation struct {
	Name string `json:"name"`
	// Rank is the domain's Tranco rank that day (1-based).
	Rank int `json:"rank"`
	// Err records a resolution failure ("" on success).
	Err string `json:"err,omitempty"`

	HTTPS []HTTPSRecord `json:"https,omitempty"`
	// Signed: RRSIG records accompanied the HTTPS RRset.
	Signed bool `json:"signed,omitempty"`
	// AD: the resolver set the Authenticated Data bit.
	AD bool `json:"ad,omitempty"`
	// CNAMEChain lists CNAME targets chased during the HTTPS query.
	CNAMEChain []string `json:"cname_chain,omitempty"`

	A      []netip.Addr `json:"a,omitempty"`
	AAAA   []netip.Addr `json:"aaaa,omitempty"`
	NS     []string     `json:"ns,omitempty"`
	HasSOA bool         `json:"has_soa,omitempty"`
}

// HasHTTPS reports whether any HTTPS record was observed.
func (o *Observation) HasHTTPS() bool { return len(o.HTTPS) > 0 }

// V4Hints returns the ipv4hint addresses of all the observed HTTPS records,
// in record order. When at most one record carries hints that is the
// record's stored slice, shared and read-only; only two or more are joined
// into a new one.
func (o *Observation) V4Hints() []netip.Addr {
	return joinHints(o.HTTPS, func(r *HTTPSRecord) []netip.Addr { return r.V4Hints })
}

// V6Hints is V4Hints for ipv6hint.
func (o *Observation) V6Hints() []netip.Addr {
	return joinHints(o.HTTPS, func(r *HTTPSRecord) []netip.Addr { return r.V6Hints })
}

func joinHints(recs []HTTPSRecord, hints func(*HTTPSRecord) []netip.Addr) []netip.Addr {
	var out []netip.Addr
	for i := range recs {
		switch h := hints(&recs[i]); {
		case len(h) == 0:
		case out == nil:
			out = slices.Clip(h) // a second record's append copies it
		default:
			out = append(out, h...)
		}
	}
	return out
}

// HasECH reports whether any observed HTTPS record carries the ech
// parameter.
func (o *Observation) HasECH() bool {
	for _, r := range o.HTTPS {
		if r.HasECH {
			return true
		}
	}
	return false
}

// Snapshot is one day's scan of one list.
type Snapshot struct {
	Date time.Time `json:"date"`
	// Kind is "apex" or "www".
	Kind string `json:"kind"`
	// Total is the number of domains scanned.
	Total int `json:"total"`
	// Obs holds the observations for domains with HTTPS records (plus
	// errors); clean no-HTTPS domains are only counted in Total.
	Obs map[string]*Observation `json:"obs"`
}

// NSObservation records one name server host's resolution + attribution.
type NSObservation struct {
	Host  string       `json:"host"`
	Addrs []netip.Addr `json:"addrs"`
	// Org is the WHOIS-attributed operator ("" if inconclusive).
	Org string `json:"org"`
}

// NSSnapshot is one day's name-server scan.
type NSSnapshot struct {
	Date    time.Time                 `json:"date"`
	Servers map[string]*NSObservation `json:"servers"`
}

// ECHObservation is one hourly-scan data point.
type ECHObservation struct {
	Time       time.Time `json:"time"`
	Domain     string    `json:"domain"`
	ConfigID   uint8     `json:"config_id"`
	KeyHash    uint64    `json:"key_hash"`
	PublicName string    `json:"public_name"`
}

// ProbeResult is one §4.3.5 connectivity experiment data point.
type ProbeResult struct {
	Date   time.Time `json:"date"`
	Domain string    `json:"domain"`
	// Mismatch: the hint and A addresses differed at probe time.
	Mismatch bool       `json:"mismatch"`
	HintAddr netip.Addr `json:"hint_addr"`
	AAddr    netip.Addr `json:"a_addr"`
	HintOK   bool       `json:"hint_ok"`
	AOK      bool       `json:"a_ok"`
}

// ServingSnapshot records one scan day's encrypted-DNS serving-layer
// lifecycle counters — the RFC 8767/RFC 2308 events the fleet absorbed
// while collecting that day's observations. Campaigns with a transport
// fleet record one per day, so analysis can correlate staleness windows
// with the §4.4.2 ECH inconsistencies directly instead of re-deriving
// them from logs. Only counters that are a deterministic function of the
// day's scan are recorded — per-exchange (winner-side) counts rather
// than per-attempt frontend totals, since racing and hedging resolution
// strategies touch a schedule-dependent number of frontends per exchange
// — which keeps pipelined and serial campaign stores byte-identical
// under every strategy.
type ServingSnapshot struct {
	Date time.Time `json:"date"`
	// StaleWindowSec is the fleet's configured RFC 8767 stale window in
	// seconds (0: serve-stale disabled), stored so the staleness exposure
	// of the day's data is interpretable without the campaign config.
	StaleWindowSec int64 `json:"stale_window_sec,omitempty"`
	// StaleServed counts RFC 8767 stale answers the scanner consumed
	// that day (exchange winners marked stale).
	StaleServed uint64 `json:"stale_served"`
	// NegativeHits counts RFC 2308 negative answers (NXDOMAIN/NODATA)
	// the scanner consumed that day.
	NegativeHits uint64 `json:"negative_hits"`
	// Prefetches counts refresh-ahead upstream refreshes.
	Prefetches uint64 `json:"prefetches"`
	// UpstreamFailures counts hard recursor failures and SERVFAILs seen
	// behind the fleet.
	UpstreamFailures uint64 `json:"upstream_failures"`
}

// AnomalyEvent is one counted event kind inside an anomaly capture: the
// event key ("client.error", "client.negative", "client.stale") and how
// many times it happened that day.
type AnomalyEvent struct {
	Key   string `json:"key"`
	Count uint64 `json:"count"`
}

// AnomalyTrace is one tail-sampled trace's stable projection inside an
// anomaly capture: the traced query name and the anomaly flags that got
// it retained. Virtual cost and trace IDs are deliberately absent —
// per-exchange Elapsed depends on how scanner workers interleaved their
// pool updates, so storing it would break the serial/pipelined
// byte-identity contract the rest of the store honors.
type AnomalyTrace struct {
	Name  string   `json:"name"`
	Flags []string `json:"flags,omitempty"`
}

// AnomalyCapture is one scan day's anomaly bundle: the stable SLO
// verdict, the client's winner-side event counts, and the stable
// projections of the tail-sampled traces. Campaigns commit one per day
// on which the anomaly trigger held (stable anomaly events present or an
// SLO objective violated). Like ServingSnapshot, every field is a
// deterministic function of the day's scan, so pipelined and serial
// campaign stores stay byte-identical with captures on.
type AnomalyCapture struct {
	Date time.Time `json:"date"`
	// Exchanges/Errors/ServFails/StaleServed are the day's winner-side
	// SLO inputs; Availability and StaleRatio the derived objectives.
	Exchanges    uint64  `json:"exchanges"`
	Errors       uint64  `json:"errors"`
	ServFails    uint64  `json:"servfails"`
	StaleServed  uint64  `json:"stale_served"`
	Availability float64 `json:"availability"`
	StaleRatio   float64 `json:"stale_ratio"`
	// Violations counts SLO objectives the day breached (the latency
	// objective is excluded: p99 is volatile under pipelining).
	Violations int `json:"violations"`
	// Events are the day's non-zero client event counts in key order.
	Events []AnomalyEvent `json:"events,omitempty"`
	// Traces are the tail ring's stable projections, deduplicated and
	// sorted by (name, flags).
	Traces []AnomalyTrace `json:"traces,omitempty"`
}

// TelemetryValue is one flattened metric reading inside a telemetry
// sample: the obs metric key (name plus sorted labels) and its value.
type TelemetryValue struct {
	Key   string  `json:"key"`
	Value float64 `json:"value"`
}

// TelemetryPoint is one sampled telemetry snapshot on a series: a label
// ("tick" for interval samples, a stage name for forced ones), the
// virtual-clock sample time, and the flattened stable metric values.
type TelemetryPoint struct {
	Label  string           `json:"label"`
	AtSec  int64            `json:"at_sec"`
	Values []TelemetryValue `json:"values"`
}

// Value returns the reading for key (0 when absent).
func (p TelemetryPoint) Value(key string) float64 {
	for _, v := range p.Values {
		if v.Key == key {
			return v.Value
		}
	}
	return 0
}

// TelemetrySeries is one scope's sampled metric curve for one day —
// the campaign time-series the obs subsystem collects. Like
// ServingSnapshot, only schedule-independent (stable) metrics are
// recorded, so pipelined and serial campaign runs produce byte-identical
// series.
type TelemetrySeries struct {
	// Scope names the collection loop ("daily", "hourly-ech").
	Scope string    `json:"scope"`
	Date  time.Time `json:"date"`
	// IntervalSec records the campaign's TelemetryInterval in seconds;
	// points are taken at stage boundaries (daily) or per hour (hourly-ech).
	IntervalSec int64            `json:"interval_sec,omitempty"`
	Points      []TelemetryPoint `json:"points"`
}

// ValidationResult is one row of the one-shot DNSSEC census (Table 9).
type ValidationResult struct {
	Domain   string `json:"domain"`
	HasHTTPS bool   `json:"has_https"`
	CFNS     bool   `json:"cf_ns"`
	Signed   bool   `json:"signed"`
	// Result is "secure", "insecure", "bogus" or "indeterminate".
	Result string `json:"result"`
}

// Store accumulates a campaign's data: per-day tables keyed by UTC day
// and three append tables, behind one lock. It is safe for concurrent
// use; see the package documentation for the determinism contract.
type Store struct {
	mu sync.RWMutex

	apex    map[int64]*Snapshot // keyed by unix day
	www     map[int64]*Snapshot
	ns      map[int64]*NSSnapshot
	serving map[int64]*ServingSnapshot
	anomaly map[int64]*AnomalyCapture
	// telemetry is keyed by scope + "|" + unix day, so daily series and
	// hourly-ech series over the same dates never collide.
	telemetry map[string]*TelemetrySeries

	ech        recTable[ECHObservation]
	probes     recTable[ProbeResult]
	validation recTable[ValidationResult]

	// trancoLists preserves each day's ranked list for overlap analysis.
	trancoLists map[int64][]string
}

// NewStore creates an empty store.
func NewStore() *Store {
	return &Store{
		apex:        map[int64]*Snapshot{},
		www:         map[int64]*Snapshot{},
		ns:          map[int64]*NSSnapshot{},
		serving:     map[int64]*ServingSnapshot{},
		anomaly:     map[int64]*AnomalyCapture{},
		telemetry:   map[string]*TelemetrySeries{},
		trancoLists: map[int64][]string{},
	}
}

func dayKey(t time.Time) int64 { return t.UTC().Truncate(24 * time.Hour).Unix() }

// The per-day tables share three operations. The map fields are set once
// by NewStore, so reading the field outside the lock is safe; only the
// map's contents are guarded.

func putDay[V any](s *Store, m map[int64]V, date time.Time, v V) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m[dayKey(date)] = v
}

func getDay[V any](s *Store, m map[int64]V, date time.Time) (V, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, ok := m[dayKey(date)]
	return v, ok
}

func listDays[V any](s *Store, m map[int64]V) []time.Time {
	s.mu.RLock()
	keys := sortedKeys(m)
	s.mu.RUnlock()
	out := make([]time.Time, len(keys))
	for i, k := range keys {
		out[i] = time.Unix(k, 0).UTC()
	}
	return out
}

func sortedKeys[V any](m map[int64]V) []int64 {
	keys := make([]int64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// sortedValues returns a per-day table's values in day order (nil when
// the table is empty). The caller holds the lock.
func sortedValues[V any](m map[int64]V) []V {
	var out []V
	for _, k := range sortedKeys(m) {
		out = append(out, m[k])
	}
	return out
}

// recTable is an append table: records in arrival order, held in chunks
// that are never regrown, so a growing table copies nothing it holds. A
// chunk holds as many records as the table held before it (at least
// minChunk and at most maxChunk), so a small table costs a chunk or two and
// a large one wastes at most one chunk's unused tail.
type recTable[T any] struct {
	chunks [][]T
	n      int
}

const (
	minChunk = 16
	maxChunk = 1 << 12
)

func (t *recTable[T]) add(recs []T) {
	for len(recs) > 0 {
		k := len(t.chunks) - 1
		if k < 0 || len(t.chunks[k]) == cap(t.chunks[k]) {
			t.chunks = append(t.chunks, make([]T, 0, min(max(t.n, minChunk), maxChunk)))
			k++
		}
		m := min(len(recs), cap(t.chunks[k])-len(t.chunks[k]))
		t.chunks[k] = append(t.chunks[k], recs[:m]...)
		t.n += m
		recs = recs[m:]
	}
}

// all copies the table out in arrival order, never nil.
func (t *recTable[T]) all() []T {
	out := make([]T, 0, t.n)
	for _, c := range t.chunks {
		out = append(out, c...)
	}
	return out
}

// writeJSON writes the table as one JSON array, encoding a chunk at a time
// (a chunk is never empty).
func (t *recTable[T]) writeJSON(w *bufio.Writer) error {
	w.WriteByte('[')
	for i, c := range t.chunks {
		b, err := json.Marshal(c)
		if err != nil {
			return err
		}
		if i > 0 {
			w.WriteByte(',')
		}
		w.Write(b[1 : len(b)-1])
	}
	return w.WriteByte(']')
}

// appendRecs and copyRecs are the append tables' write and read.

func appendRecs[T any](s *Store, table *recTable[T], recs []T) {
	s.mu.Lock()
	defer s.mu.Unlock()
	table.add(recs)
}

func copyRecs[T any](s *Store, table *recTable[T]) []T {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return table.all()
}

func (s *Store) snapshots(kind string) map[int64]*Snapshot {
	if kind == "www" {
		return s.www
	}
	return s.apex
}

// AddSnapshot stores a daily snapshot.
func (s *Store) AddSnapshot(snap *Snapshot) { putDay(s, s.snapshots(snap.Kind), snap.Date, snap) }

// AddNSSnapshot stores a daily name-server snapshot.
func (s *Store) AddNSSnapshot(snap *NSSnapshot) { putDay(s, s.ns, snap.Date, snap) }

// AddServing stores a daily serving-layer lifecycle snapshot.
func (s *Store) AddServing(snap *ServingSnapshot) { putDay(s, s.serving, snap.Date, snap) }

// ServingDays returns the sorted dates with serving snapshots.
func (s *Store) ServingDays() []time.Time { return listDays(s, s.serving) }

// ServingFor returns the serving snapshot for a date.
func (s *Store) ServingFor(date time.Time) (*ServingSnapshot, bool) {
	return getDay(s, s.serving, date)
}

// AddAnomaly stores a daily anomaly-capture bundle.
func (s *Store) AddAnomaly(cap *AnomalyCapture) { putDay(s, s.anomaly, cap.Date, cap) }

// AnomalyDays returns the sorted dates with anomaly captures.
func (s *Store) AnomalyDays() []time.Time { return listDays(s, s.anomaly) }

// AnomalyFor returns the anomaly capture for a date.
func (s *Store) AnomalyFor(date time.Time) (*AnomalyCapture, bool) {
	return getDay(s, s.anomaly, date)
}

func telemetryKey(scope string, date time.Time) string {
	return scope + "|" + strconv.FormatInt(dayKey(date), 10)
}

// AddTelemetry stores one day's telemetry series for its scope.
func (s *Store) AddTelemetry(series *TelemetrySeries) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.telemetry[telemetryKey(series.Scope, series.Date)] = series
}

// TelemetryFor returns the telemetry series for (scope, date).
func (s *Store) TelemetryFor(scope string, date time.Time) (*TelemetrySeries, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	series, ok := s.telemetry[telemetryKey(scope, date)]
	return series, ok
}

// TelemetryAll returns every stored series sorted by (scope, date).
func (s *Store) TelemetryAll() []*TelemetrySeries {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.telemetryAll()
}

func (s *Store) telemetryAll() []*TelemetrySeries {
	var out []*TelemetrySeries
	for _, series := range s.telemetry {
		out = append(out, series)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Scope != out[j].Scope {
			return out[i].Scope < out[j].Scope
		}
		return out[i].Date.Before(out[j].Date)
	})
	return out
}

// AddTrancoList stores the day's ranked list.
func (s *Store) AddTrancoList(date time.Time, list []string) { putDay(s, s.trancoLists, date, list) }

// AddECH appends hourly ECH observations.
func (s *Store) AddECH(obs ...ECHObservation) { appendRecs(s, &s.ech, obs) }

// AddProbes appends connectivity probe results.
func (s *Store) AddProbes(res ...ProbeResult) { appendRecs(s, &s.probes, res) }

// AddValidation appends DNSSEC census rows.
func (s *Store) AddValidation(res ...ValidationResult) { appendRecs(s, &s.validation, res) }

// Days returns the sorted scan dates present for the given kind.
func (s *Store) Days(kind string) []time.Time { return listDays(s, s.snapshots(kind)) }

// SnapshotFor returns the snapshot for (kind, date).
func (s *Store) SnapshotFor(kind string, date time.Time) (*Snapshot, bool) {
	return getDay(s, s.snapshots(kind), date)
}

// NSDays returns the sorted dates with name-server snapshots.
func (s *Store) NSDays() []time.Time { return listDays(s, s.ns) }

// NSSnapshotFor returns the name-server snapshot for a date.
func (s *Store) NSSnapshotFor(date time.Time) (*NSSnapshot, bool) { return getDay(s, s.ns, date) }

// TrancoListFor returns the stored ranked list for a date.
func (s *Store) TrancoListFor(date time.Time) ([]string, bool) {
	return getDay(s, s.trancoLists, date)
}

// ECHObservations returns all hourly ECH data points in append order.
func (s *Store) ECHObservations() []ECHObservation { return copyRecs(s, &s.ech) }

// Probes returns all connectivity probe results in append order.
func (s *Store) Probes() []ProbeResult { return copyRecs(s, &s.probes) }

// Validation returns the DNSSEC census in append order.
func (s *Store) Validation() []ValidationResult { return copyRecs(s, &s.validation) }

// WriteJSON serialises the whole store as one JSON object: the per-day
// tables in day order and the append tables in append order, so stores
// committed in the same order produce equal bytes. It encodes under the
// read lock one table at a time, and an append table one chunk at a time,
// so an export holds neither the whole document nor a copy of a table.
func (s *Store) WriteJSON(w io.Writer) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	bw := bufio.NewWriter(w)
	var err error
	put := func(key string, v any) {
		bw.WriteString(key)
		if err == nil {
			var b []byte
			b, err = json.Marshal(v)
			bw.Write(b)
		}
	}
	put(`{"apex":`, sortedValues(s.apex))
	put(`,"www":`, sortedValues(s.www))
	put(`,"ns":`, sortedValues(s.ns))
	// The serving, anomaly and telemetry tables are left out when empty.
	if v := sortedValues(s.serving); len(v) > 0 {
		put(`,"serving":`, v)
	}
	if v := sortedValues(s.anomaly); len(v) > 0 {
		put(`,"anomalies":`, v)
	}
	if v := s.telemetryAll(); len(v) > 0 {
		put(`,"telemetry":`, v)
	}
	for _, t := range []struct {
		key   string
		write func(*bufio.Writer) error
	}{{`,"ech":`, s.ech.writeJSON}, {`,"probes":`, s.probes.writeJSON}, {`,"validation":`, s.validation.writeJSON}} {
		bw.WriteString(t.key)
		if err == nil {
			err = t.write(bw)
		}
	}
	bw.WriteString("}\n")
	if err != nil {
		return err
	}
	return bw.Flush()
}
