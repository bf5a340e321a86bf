package obs

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/testrace"
)

// referenceKey is metricKey as fmt and sort.Slice render it: labels sorted
// by key, each written as %s=%q.
func referenceKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

func TestMetricKeyMatchesFmt(t *testing.T) {
	many := make([]Label, 11) // past the stack array, unsorted, keys repeated
	for i := range many {
		many[i] = L(fmt.Sprintf("k%d", (7*i)%5), fmt.Sprintf("v%d", i))
	}
	long := make([]Label, 12)
	for i := range long {
		long[i] = L(strings.Repeat("key", i+1), strings.Repeat("\"value\\", 5))
	}
	for _, tc := range []struct {
		name   string
		labels []Label
	}{
		{"bare", nil},
		{"one", []Label{L("proto", "doh")}},
		{"quotes", []Label{L("q", `say "hi"`), L("b", `back\slash`)}},
		{"control", []Label{L("nl", "a\nb\tc\x00\x7f")}},
		{"non-ascii", []Label{L("city", "Zürich 東京"), L("bad", "\xff\xfe"), L("emoji", "\U0001F600")}},
		{"unsorted", []Label{L("z", "1"), L("a", "2"), L("m", "3")}},
		{"duplicate keys", []Label{L("k", "second"), L("a", "x"), L("k", "first"), L("k", "third")}},
		{"empty strings", []Label{L("", ""), L("e", "")}},
		{"nine labels", many[:9]},
		{"eleven labels", many},
		{"past the stack buffer", long},
	} {
		if got, want := metricKey(tc.name, tc.labels), referenceKey(tc.name, tc.labels); got != want {
			t.Errorf("%s: metricKey = %q, want %q", tc.name, got, want)
		}
	}
}

// TestMetricKeyAllocs pins a key with up to eight labels to its one string.
func TestMetricKeyAllocs(t *testing.T) {
	if testrace.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	labels := []Label{L("proto", "doh"), L("frontend", "fe-2"), L("outcome", "hit")}
	if n := testing.AllocsPerRun(100, func() { metricKey("transport.exchanges", labels) }); n != 1 {
		t.Errorf("metricKey: %v allocations, want 1", n)
	}
}

// FuzzMetricKey checks metricKey against the fmt rendering for any name
// and up to twelve labels cut from the input. sort.Slice is an insertion
// sort up to twelve elements, so labels of equal key come out in one order
// both ways; past twelve its order among equal keys is its own.
func FuzzMetricKey(f *testing.F) {
	f.Add("transport.exchanges", "proto\x00doh\x00frontend\x00fe-2")
	f.Add("m", "k\x00\"q\"\x00k\x00\\\x00a\x00\xff")
	f.Add("", "")
	f.Fuzz(func(t *testing.T, name, fields string) {
		parts := strings.Split(fields, "\x00")
		var labels []Label
		for i := 0; i+1 < len(parts) && len(labels) < 12; i += 2 {
			labels = append(labels, L(parts[i], parts[i+1]))
		}
		if got, want := metricKey(name, labels), referenceKey(name, labels); got != want {
			t.Errorf("metricKey(%q, %q) = %q, want %q", name, labels, got, want)
		}
	})
}
