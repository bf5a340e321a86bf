package ech

import (
	"bytes"
	"testing"
	"time"
)

// FuzzUnmarshalList drives the ECHConfigList decoder the scanner and the
// TLS client run on every ech SvcParam they read. It must never panic, and
// a list it accepts whose configs are all of the supported version (the
// decoder keeps nothing but the version of any other) must marshal back to
// the input bytes.
func FuzzUnmarshalList(f *testing.F) {
	start := time.Date(2023, 7, 21, 0, 0, 0, 0, time.UTC)
	km, err := NewKeyManager(testRNG(26), "cloudflare-ech.com", time.Hour, 2*time.Hour, start)
	if err != nil {
		f.Fatal(err)
	}
	list := km.ConfigList(start)
	two := MarshalList([]Config{km.CurrentConfig(start), km.CurrentConfig(start.Add(time.Hour))})
	f.Add(list)
	f.Add(two)
	f.Add(list[:len(list)-1]) // truncated: the list length now lies
	f.Add(two[:len(two)/2])
	for _, at := range []int{1, 5, 10} { // list, config and public-key lengths off by one
		for _, delta := range []byte{1, 0xff} {
			b := bytes.Clone(list)
			b[at] += delta
			f.Add(b)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		configs, err := UnmarshalList(data)
		if err != nil {
			return
		}
		for _, c := range configs {
			if c.Version != DraftVersion {
				return
			}
		}
		if again := MarshalList(configs); !bytes.Equal(again, data) {
			t.Fatalf("accepted %x re-marshals to %x", data, again)
		}
	})
}
