package repro

// Ablation benchmarks for the design choices DESIGN.md calls out: the
// resolver's TTL cache, the validated-zone-key cache, and DNS name
// compression. Run with:
//
//	go test -bench=Ablation -benchmem

import (
	"testing"
	"time"

	"repro/internal/dnssec"
	"repro/internal/dnswire"
	"repro/internal/providers"
)

func ablationWorld(b *testing.B) (*providers.World, []string) {
	b.Helper()
	w, err := providers.BuildWorld(providers.WorldConfig{Size: 400, Seed: 77})
	if err != nil {
		b.Fatal(err)
	}
	w.Clock.Set(time.Date(2023, 9, 1, 0, 0, 0, 0, time.UTC))
	list := w.Tranco.ListFor(w.Clock.Now())[:100]
	return w, list
}

// BenchmarkAblationResolverCacheWarm measures repeated resolutions with the
// TTL cache retained between rounds (the production configuration).
func BenchmarkAblationResolverCacheWarm(b *testing.B) {
	w, list := ablationWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, name := range list {
			if _, err := w.GoogleResolver.Resolve(name, dnswire.TypeHTTPS); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkAblationResolverCacheCold flushes the cache every round,
// quantifying what the TTL cache buys a daily-scan workload.
func BenchmarkAblationResolverCacheCold(b *testing.B) {
	w, list := ablationWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.GoogleResolver.FlushCache()
		for _, name := range list {
			if _, err := w.GoogleResolver.Resolve(name, dnswire.TypeHTTPS); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkAblationZoneKeyCache isolates the validated-zone-key cache. Both
// arms validate the HTTPS RRsets that the world's resolver returns with AD
// for names of the day's list, over that same resolver warmed by those
// resolutions (every fetch is a cache hit) and with no signature memo
// (every signature is verified in full); they differ only
// in the validator's KeyCache. Without it, every validation re-verifies the
// root and TLD DNSKEY self-signatures (two ECDSA verifies per level per
// domain).
func BenchmarkAblationZoneKeyCache(b *testing.B) {
	w, _ := ablationWorld(b)
	var signed []string
	for _, name := range w.Tranco.ListFor(w.Clock.Now()) {
		if res, err := w.GoogleResolver.Resolve(name, dnswire.TypeHTTPS); err == nil && res.AuthenticatedData {
			signed = append(signed, name)
		}
	}
	if len(signed) == 0 {
		b.Fatal("no name of the list resolves with AD")
	}
	for _, mode := range []struct {
		name string
		keys dnssec.ZoneKeyCache
	}{
		{"with-key-cache", w.GoogleResolver},
		{"without-key-cache", nil},
	} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, name := range signed {
					v := dnssec.NewValidator(w.GoogleResolver, w.Anchor, w.Clock.Now())
					v.KeyCache = mode.keys
					if res, err := v.Validate(name, dnswire.TypeHTTPS); res != dnssec.Secure {
						b.Fatalf("%s validates %v: %v", name, res, err)
					}
				}
			}
			b.ReportMetric(float64(len(signed)), "domains/op")
		})
	}
}

// BenchmarkAblationNameCompression compares full-message packing (with
// compression) against per-record packing (no compression) for a
// referral-shaped message with many repeated suffixes.
func BenchmarkAblationNameCompression(b *testing.B) {
	m := &dnswire.Message{ID: 1, Response: true}
	for i := 0; i < 13; i++ {
		host := string(rune('a'+i)) + ".gtld-servers.example-registry.net."
		m.Authority = append(m.Authority, dnswire.RR{
			Name: "com.", Type: dnswire.TypeNS, Class: dnswire.ClassINET, TTL: 172800,
			Data: &dnswire.NSData{Host: host},
		})
	}
	b.Run("compressed-message", func(b *testing.B) {
		var size int
		for i := 0; i < b.N; i++ {
			wire, err := m.Pack()
			if err != nil {
				b.Fatal(err)
			}
			size = len(wire)
		}
		b.ReportMetric(float64(size), "bytes/msg")
	})
	b.Run("uncompressed-records", func(b *testing.B) {
		var size int
		for i := 0; i < b.N; i++ {
			total := 12 // header
			for _, rr := range m.Authority {
				wire, err := dnswire.PackRR(nil, rr)
				if err != nil {
					b.Fatal(err)
				}
				total += len(wire)
			}
			size = total
		}
		b.ReportMetric(float64(size), "bytes/msg")
	})
}
