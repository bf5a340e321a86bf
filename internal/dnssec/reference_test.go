package dnssec

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"net/netip"
	"slices"
	"testing"

	"repro/internal/dnswire"
)

// The reference builders: the canonical forms built the plain way, each
// member packed into a slice of its own, sorted as slices and concatenated.
// They are the oracle signingDigest and dsDigest are held to.

// splitRR packs a record in canonical (lowercase, uncompressed) form and
// returns the whole wire, its owner name and its RDATA.
func splitRR(rr dnswire.RR) (full, owner, rdata []byte, err error) {
	full, err = dnswire.PackRR(nil, rr)
	if err != nil {
		return nil, nil, nil, err
	}
	// A name's wire form is one length byte per label plus the root byte:
	// as long as its dotted form and one more, the root alone one byte.
	n := 1
	if name := dnswire.CanonicalName(rr.Name); name != "." {
		n = len(name) + 1
	}
	// The fixed type/class/ttl/rdlen fields take 10 bytes.
	return full, full[:n], full[n+10:], nil
}

// refSigningInput returns an RRSIG's signing input: its signed prefix, then
// each member's owner|type|class|origTTL|rdlen|rdata, members sorted by
// canonical RDATA, duplicates removed (RFC 4034 §6.3).
func refSigningInput(sig *dnswire.RRSIGData, rrs []dnswire.RR, origTTL uint32) ([]byte, error) {
	if len(rrs) == 0 {
		return nil, ErrEmptyRRset
	}
	name, typ, class := dnswire.CanonicalName(rrs[0].Name), rrs[0].Type, rrs[0].Class
	type entry struct{ rdata, full []byte }
	var entries []entry
	for _, rr := range rrs {
		if dnswire.CanonicalName(rr.Name) != name || rr.Type != typ || rr.Class != class {
			return nil, ErrMixedRRset
		}
		rr.TTL = origTTL
		full, _, rdata, err := splitRR(rr)
		if err != nil {
			return nil, err
		}
		entries = append(entries, entry{rdata: rdata, full: full})
	}
	slices.SortFunc(entries, func(a, b entry) int { return bytes.Compare(a.rdata, b.rdata) })
	out, err := sig.AppendSignedPrefix(nil)
	if err != nil {
		return nil, err
	}
	var prev []byte
	for _, e := range entries {
		if prev != nil && bytes.Equal(prev, e.rdata) {
			continue
		}
		prev = e.rdata
		out = append(out, e.full...)
	}
	return out, nil
}

// refMakeDS computes the SHA-256 DS record of a DNSKEY record.
func refMakeDS(dnskey dnswire.RR, ttl uint32) (dnswire.RR, error) {
	data, ok := dnskey.Data.(*dnswire.DNSKEYData)
	if !ok {
		return dnswire.RR{}, fmt.Errorf("dnssec: record is not a DNSKEY")
	}
	_, owner, rdata, err := splitRR(dnskey)
	if err != nil {
		return dnswire.RR{}, err
	}
	digest := sha256.Sum256(append(append([]byte(nil), owner...), rdata...))
	return dnswire.RR{Name: dnskey.Name, Type: dnswire.TypeDS, Class: dnswire.ClassINET, TTL: ttl,
		Data: &dnswire.DSData{KeyTag: data.KeyTag(), Algorithm: data.Algorithm,
			DigestType: dnswire.DigestSHA256, Digest: digest[:]}}, nil
}

// fuzzRRset builds an RRset of up to 12 members from spec, two bytes a
// member: a kind byte and a value byte. The set's type is the first
// member's; a member's kind picks its RDATA (the low three bits) and may
// upper-case its owner (0x08), move it to another owner (0x10), another
// class (0x20) or another type (0x40). Values are taken modulo 4 for the
// names, keys and priorities, so equal RDATA turns up often; HTTPS targets
// differ in length, so ordering by RDATA is not ordering by RDLENGTH.
func fuzzRRset(spec []byte) []dnswire.RR {
	var rrs []dnswire.RR
	var typ dnswire.Type
	for i := 0; i+1 < len(spec) && len(rrs) < 12; i += 2 {
		kind, v := spec[i], spec[i+1]
		rr := dnswire.RR{Name: "www.example.com.", Class: dnswire.ClassINET, TTL: uint32(v) * 60}
		var t dnswire.Type
		switch kind & 7 {
		case 0:
			t, rr.Data = dnswire.TypeA, &dnswire.AData{Addr: netip.AddrFrom4([4]byte{10, 0, 0, v})}
		case 1:
			t, rr.Data = dnswire.TypeAAAA, &dnswire.AAAAData{Addr: netip.AddrFrom16([16]byte{0: 0x20, 1: 0x01, 15: v})}
		case 2:
			t, rr.Data = dnswire.TypeCNAME, &dnswire.CNAMEData{Target: fmt.Sprintf("T%d.Example.NET.", v%4)}
		case 3:
			t, rr.Data = dnswire.TypeNS, &dnswire.NSData{Host: fmt.Sprintf("NS%d.example.COM", v%4)}
		case 4:
			t, rr.Data = dnswire.TypeDNSKEY, &dnswire.DNSKEYData{Flags: dnswire.DNSKEYFlagZone | uint16(v&1),
				Protocol: 3, Algorithm: dnswire.AlgECDSAP256SHA256, PublicKey: bytes.Repeat([]byte{v % 4}, 64)}
		case 5:
			target := []string{".", "a.example.", "svc.Example.NET."}[v/4%3]
			t, rr.Data = dnswire.TypeHTTPS, &dnswire.SVCBData{Priority: uint16(v % 4), Target: target}
		case 6:
			t = dnswire.TypeA // nil RDATA
		case 7:
			t, rr.Data = dnswire.TypeA, &dnswire.AData{} // no address: does not pack
		}
		if len(rrs) == 0 {
			typ = t
		}
		rr.Type = typ
		if kind&0x08 != 0 {
			rr.Name = "WWW.Example.Com"
		}
		if kind&0x10 != 0 {
			rr.Name = "other.example.com."
		}
		if kind&0x20 != 0 {
			rr.Class = 3 // CHAOS
		}
		if kind&0x40 != 0 {
			rr.Type = dnswire.TypeTXT
		}
		rrs = append(rrs, rr)
	}
	return rrs
}

// FuzzSigningDigest holds signingDigest to the reference: on every set the
// fuzzer builds, the same error, and on success the SHA-256 of the
// reference signing input.
func FuzzSigningDigest(f *testing.F) {
	twelve := make([]byte, 0, 24)
	for v := range 12 {
		twelve = append(twelve, 0, byte(v))
	}
	f.Add([]byte{0, 1}, uint32(300), "example.com.")
	f.Add(twelve, uint32(300), "example.com.")
	f.Add([]byte{0, 1, 0, 1, 0, 2, 0, 1}, uint32(60), "Example.COM")
	f.Add([]byte{0x0a, 1, 0x0a, 5, 0x02, 2}, uint32(3600), "example.com.")
	f.Add([]byte{3, 0, 0x0b, 1, 3, 4, 0x0b, 2}, uint32(86400), "com.")
	f.Add([]byte{0, 1, 0x10, 2}, uint32(300), "example.com.")
	f.Add([]byte{0, 1, 0x20, 2}, uint32(300), "example.com.")
	f.Add([]byte{0, 1, 0x40, 2}, uint32(300), "example.com.")
	f.Add([]byte{0, 1, 6, 2}, uint32(300), "example.com.")
	f.Add([]byte{0, 1, 7, 2}, uint32(300), "example.com.")
	f.Add([]byte{4, 0, 4, 1, 4, 4, 4, 2, 4, 3}, uint32(3600), "www.example.com.")
	f.Add([]byte{5, 2, 5, 1, 5, 2}, uint32(300), ".")
	f.Add([]byte{5, 0x01, 5, 0x08}, uint32(300), "example.com.")
	f.Add([]byte{}, uint32(0), "")
	f.Add([]byte{0, 1}, uint32(300), "a."+string(bytes.Repeat([]byte{'x'}, 64))+".com.")
	f.Fuzz(func(t *testing.T, spec []byte, origTTL uint32, signer string) {
		rrs := fuzzRRset(spec)
		sig := &dnswire.RRSIGData{TypeCovered: dnswire.TypeA, Algorithm: dnswire.AlgECDSAP256SHA256,
			Labels: 3, OriginalTTL: origTTL, Expiration: 2, Inception: 1, KeyTag: 4242, SignerName: signer}
		want, wantErr := refSigningInput(sig, rrs, origTTL)
		got, err := signingDigest(sig, rrs, origTTL)
		if errText(err) != errText(wantErr) {
			t.Fatalf("signingDigest error %v, reference %v", err, wantErr)
		}
		if err == nil && got != sha256.Sum256(want) {
			t.Fatalf("%d members: digest %x, reference %x", len(rrs), got, sha256.Sum256(want))
		}
	})
}
