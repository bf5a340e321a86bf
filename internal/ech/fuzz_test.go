package ech

import (
	"bytes"
	"errors"
	"testing"
	"time"
)

// FuzzUnmarshalList drives the package's one ECHConfigList reader, through
// both its copy-out (UnmarshalList, which the TLS client runs) and its
// in-place selection (SelectInPlace, which the scanner runs on every ech
// SvcParam it reads). Neither may panic. On every input the in-place
// selection must equal SelectConfig(UnmarshalList(b)): the same config id,
// key bytes and public name, or the same class of error (malformed, or no
// supported config). A list UnmarshalList accepts whose configs are all of
// the supported version (the decoder keeps nothing but the version of any
// other) must marshal back to the input bytes.
func FuzzUnmarshalList(f *testing.F) {
	start := time.Date(2023, 7, 21, 0, 0, 0, 0, time.UTC)
	km, err := NewKeyManager(testRNG(26), "cloudflare-ech.com", time.Hour, 2*time.Hour, start)
	if err != nil {
		f.Fatal(err)
	}
	list := km.ConfigList(start)
	cur := km.CurrentConfig(start)
	two := marshalList([]Config{cur, km.CurrentConfig(start.Add(time.Hour))})
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
	unsupported := cur.Clone()
	unsupported.ConfigID, unsupported.CipherSuites = 9, []CipherSuite{{KDF: 2, AEAD: 3}}
	f.Add(marshalList([]Config{unsupported, cur})) // an unsupported config, then a supported one
	unknown := []byte{0xfe, 0x0a, 0, 2, 0xaa, 0xbb}
	f.Add(withListLength(unknown))                                            // an unknown-version config alone
	f.Add(withListLength(append(bytes.Clone(list[2:]), 0xfe, 0x0d, 0, 1, 7))) // a malformed config after a supported one
	f.Fuzz(func(t *testing.T, data []byte) {
		configs, err := UnmarshalList(data)
		want, wantErr := Config{}, err
		if err == nil {
			want, wantErr = SelectConfig(configs)
		}
		got, gotErr := SelectInPlace(data)
		switch {
		case errorClass(gotErr) != errorClass(wantErr):
			t.Fatalf("%x: SelectInPlace error %v, SelectConfig(UnmarshalList) %v", data, gotErr, wantErr)
		case gotErr == nil && (got.ConfigID != want.ConfigID || !bytes.Equal(got.PublicKey, want.PublicKey) ||
			string(got.PublicName) != want.PublicName):
			t.Fatalf("%x: SelectInPlace picked %d %x %q, SelectConfig %d %x %q", data,
				got.ConfigID, got.PublicKey, got.PublicName, want.ConfigID, want.PublicKey, want.PublicName)
		}
		if err != nil {
			return
		}
		for _, c := range configs {
			if c.Version != DraftVersion {
				return
			}
		}
		if again := marshalList(configs); !bytes.Equal(again, data) {
			t.Fatalf("accepted %x re-marshals to %x", data, again)
		}
	})
}

// withListLength prefixes configs with their ECHConfigList length.
func withListLength(configs []byte) []byte {
	return append([]byte{byte(len(configs) >> 8), byte(len(configs))}, configs...)
}

// errorClass names the sentinel an ECHConfigList error wraps.
func errorClass(err error) string {
	switch {
	case err == nil:
		return "none"
	case errors.Is(err, ErrMalformed):
		return "malformed"
	case errors.Is(err, ErrNoSupported):
		return "no supported config"
	}
	return "other: " + err.Error()
}
