package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// layer names a package of the program under test; a span belongs to the
// layer whose exported entry point it wraps.
type layer uint8

const (
	layerCore      layer = iota // the day/hour loop the benchmark rebuilds from core's parts
	layerWorkload               // workload.Engine.Run
	layerScanner                // Scanner.ScanDomain and the per-day NS / probe passes
	layerTransport              // transport.Client.Exchange (envelopes, cache, pool, strategy)
	layerResolver               // resolver.HandleDNS (includes DNSSEC validation)
	layerProviders              // Provider / TLDServer / root HandleDNS(At)
	layerDataset                // Store.Add*
	layerAnalysis               // the report pass over the store
	numLayers
)

var layerNames = [numLayers]string{
	"core", "workload", "scanner", "transport", "resolver", "providers", "dataset", "analysis",
}

func (l layer) String() string { return layerNames[l] }

// span is one timed call into a layer. Parent is the span that was open
// when it began (-1 for the root); Exchange is shared by every span of one
// request (one domain scan, or one client query) and is -1 outside any.
type span struct {
	Layer    layer
	Start    int64 // ns since the tracer's origin
	End      int64
	Parent   int32
	Exchange int32
}

// tracer records spans in memory. It is driven from one goroutine (the
// traced runs set every worker count to 1), so a stack of open spans gives
// each new span its parent without threading a context through the program
// under test. A nil *tracer records nothing: the untraced reference run
// executes the same benchmark code with no wrappers installed.
type tracer struct {
	origin   time.Time
	spans    []span
	open     []int32
	exchange int32
	nextExch int32
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), exchange: -1, spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its id for end.
func (t *tracer) begin(l layer) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Layer: l, Parent: parent, Exchange: t.exchange,
		Start: int64(time.Since(t.origin))})
	t.open = append(t.open, id)
	return id
}

// end closes the span begin returned; spans close in LIFO order.
func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.origin))
	t.open = t.open[:len(t.open)-1]
}

// beginExchange opens a span that starts a new request: it and every span
// beneath it carry a fresh exchange id.
func (t *tracer) beginExchange(l layer) int32 {
	if t == nil {
		return -1
	}
	t.exchange = t.nextExch
	t.nextExch++
	return t.begin(l)
}

func (t *tracer) endExchange(id int32) {
	if t == nil {
		return
	}
	t.end(id)
	t.exchange = -1
}

// selfTimes returns, per layer, the summed self time of its spans: each
// span's duration minus the part of that interval its direct children
// cover. Children are merged as intervals and clipped to the parent, so
// overlapping siblings are not subtracted twice.
func selfTimes(spans []span) [numLayers]int64 {
	children := make(map[int32][]int32)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	var out [numLayers]int64
	for i, s := range spans {
		out[s.Layer] += (s.End - s.Start) - covered(spans, s, children[int32(i)])
	}
	return out
}

// covered is the length of the union of the kids' intervals inside parent.
func covered(spans []span, parent span, kids []int32) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
	var total, curStart, curEnd int64
	merging := false
	for _, k := range kids {
		s, e := max(spans[k].Start, parent.Start), min(spans[k].End, parent.End)
		if e <= s {
			continue
		}
		switch {
		case !merging || s > curEnd:
			total += curEnd - curStart
			curStart, curEnd, merging = s, e, true
		case e > curEnd:
			curEnd = e
		}
	}
	total += curEnd - curStart
	return total
}

// durations returns the length in ns of every span of layer l.
func (t *tracer) durations(l layer) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Layer == l {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// countUnder counts spans of layer l whose direct parent is of layer p.
func (t *tracer) countUnder(l, p layer) int {
	n := 0
	for _, s := range t.spans {
		if s.Layer == l && s.Parent >= 0 && t.spans[s.Parent].Layer == p {
			n++
		}
	}
	return n
}

// write stores the spans as dir/trace-<workload>.json: a header naming the
// columns, then one array per span (see README, "Reading a
// trace").
func (t *tracer) write(dir, workload string, env map[string]any) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	head, err := json.Marshal(map[string]any{
		"workload": workload, "env": env, "unit": "ns",
		"columns": []string{"id", "layer", "start", "end", "parent", "exchange"},
	})
	if err != nil {
		f.Close()
		return "", err
	}
	fmt.Fprintf(w, "{\"header\":%s,\n\"spans\":[\n", head)
	for i, s := range t.spans {
		sep := ","
		if i == len(t.spans)-1 {
			sep = ""
		}
		fmt.Fprintf(w, "[%d,%q,%d,%d,%d,%d]%s\n", i, s.Layer, s.Start, s.End, s.Parent, s.Exchange, sep)
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
