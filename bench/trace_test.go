package main

import (
	"encoding/json"
	"os"
	"testing"
)

// sp builds a span from (layer, start, end, parent).
func sp(l layer, start, end int64, parent int32) span {
	return span{Layer: l, Start: start, End: end, Parent: parent, Exchange: -1}
}

func TestSelfTimes(t *testing.T) {
	cases := []struct {
		name  string
		spans []span
		want  map[layer]int64
	}{
		{"nested", []span{
			sp(layerCore, 0, 100, -1),
			sp(layerScanner, 10, 90, 0),
			sp(layerResolver, 20, 60, 1),
			sp(layerProviders, 30, 40, 2),
		}, map[layer]int64{layerCore: 20, layerScanner: 40, layerResolver: 30, layerProviders: 10}},
		{"adjacent siblings", []span{
			sp(layerCore, 0, 100, -1),
			sp(layerResolver, 10, 30, 0),
			sp(layerResolver, 30, 50, 0),
			sp(layerDataset, 70, 80, 0),
		}, map[layer]int64{layerCore: 50, layerResolver: 40, layerDataset: 10}},
		{"overlapping siblings are not subtracted twice", []span{
			sp(layerCore, 0, 100, -1),
			sp(layerTransport, 10, 50, 0),
			sp(layerTransport, 30, 70, 0),
			sp(layerTransport, 40, 45, 0),
		}, map[layer]int64{layerCore: 40, layerTransport: 85}},
		{"child clipped to its parent", []span{
			sp(layerCore, 10, 50, -1),
			sp(layerResolver, 0, 20, 0),
			sp(layerResolver, 40, 90, 0),
		}, map[layer]int64{layerCore: 20, layerResolver: 70}},
	}
	for _, tc := range cases {
		got := selfTimes(tc.spans)
		for l := layer(0); l < numLayers; l++ {
			if got[l] != tc.want[l] {
				t.Errorf("%s: %s self = %d, want %d", tc.name, l, got[l], tc.want[l])
			}
		}
	}
}

func TestTracerParentsAndExchanges(t *testing.T) {
	tr := newTracer()
	root := tr.begin(layerCore)
	scan := tr.beginExchange(layerScanner)
	res := tr.begin(layerResolver)
	tr.end(res)
	tr.endExchange(scan)
	store := tr.begin(layerDataset)
	tr.end(store)
	tr.end(root)

	wantParent := []int32{-1, 0, 1, 0}
	wantExchange := []int32{-1, 0, 0, -1}
	for i, s := range tr.spans {
		if s.Parent != wantParent[i] || s.Exchange != wantExchange[i] {
			t.Errorf("span %d: parent %d exchange %d, want %d %d", i, s.Parent, s.Exchange, wantParent[i], wantExchange[i])
		}
		if s.End < s.Start {
			t.Errorf("span %d ends before it starts", i)
		}
	}
	if n := tr.countUnder(layerResolver, layerScanner); n != 1 {
		t.Errorf("countUnder(resolver, scanner) = %d, want 1", n)
	}

	// A nil tracer is the untraced run: every call is a no-op.
	var off *tracer
	off.end(off.begin(layerCore))
	off.endExchange(off.beginExchange(layerScanner))
}

func TestTraceFileIsJSON(t *testing.T) {
	tr := newTracer()
	tr.end(tr.begin(layerCore))
	path, err := tr.write(t.TempDir(), "unit", map[string]any{"seed": 1})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Header map[string]any `json:"header"`
		Spans  [][]any        `json:"spans"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace file does not parse: %v", err)
	}
	if len(doc.Spans) != 1 || doc.Spans[0][1] != "core" {
		t.Errorf("spans = %v, want one core span", doc.Spans)
	}
}
