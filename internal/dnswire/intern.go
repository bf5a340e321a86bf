package dnswire

import (
	"encoding/binary"
	"net/netip"
	"slices"
	"sync"

	"repro/internal/svcb"
)

// maxInterned bounds every Interner: past it, a value is copied and not
// kept, so a long run over ever-new values holds at most this many.
const maxInterned = 1 << 12

// Interner is a bounded, content-addressed table of shared values: every
// caller that interns the same key gets one value, which no holder may
// write. The key is the value's content in bytes, built by the caller on
// its stack, so a hit allocates nothing (the map probe converts the key
// without copying it); only a miss makes the value, once. Equal keys mean
// equal contents, so what a table hands out does not depend on which caller
// interned it first. The zero value is ready to use, and it is safe for
// concurrent use: a hit holds the read lock for one map probe.
type Interner[V any] struct {
	mu sync.RWMutex
	m  map[string]V
}

// Lookup returns the value kept under key.
func (t *Interner[V]) Lookup(key []byte) (V, bool) {
	t.mu.RLock()
	v, ok := t.m[string(key)]
	t.mu.RUnlock()
	return v, ok
}

// Keep returns the value kept under key: one an earlier caller kept, or
// else v, which the table keeps unless it is at its bound. v must be the
// caller's own copy, never written again.
func (t *Interner[V]) Keep(key []byte, v V) V {
	t.mu.Lock()
	defer t.mu.Unlock()
	if w, ok := t.m[string(key)]; ok {
		return w
	}
	if len(t.m) < maxInterned {
		if t.m == nil {
			t.m = map[string]V{}
		}
		t.m[string(key)] = v
	}
	return v
}

// The lists InternAddrs and InternNames keep: the scanner's A and AAAA
// answers and the recursor's delegation server sets, the scanner's NS hosts
// and CNAME chains.
var (
	addrLists Interner[[]netip.Addr]
	nameLists Interner[[]string]
)

// InternAddrs returns a shared, read-only copy of addrs (nil for none),
// never addrs itself, so a caller may build addrs in stack scratch.
func InternAddrs(addrs []netip.Addr) []netip.Addr {
	// Each address is its family's length and bytes: up to 15 IPv6
	// addresses the key stays on the stack.
	var buf [256]byte
	key := buf[:0]
	for _, a := range addrs {
		if a.Zone() != "" {
			return slices.Clip(slices.Clone(addrs)) // a zone is not in the key
		}
		key = append(key, byte(a.BitLen()/8))
		key = append(key, a.AsSlice()...)
	}
	return internList(&addrLists, key, addrs)
}

// InternNames is InternAddrs for a list of names.
func InternNames(names []string) []string {
	var buf [512]byte
	key := buf[:0]
	for _, n := range names {
		key = binary.AppendUvarint(key, uint64(len(n)))
		key = append(key, n...)
	}
	return internList(&nameLists, key, names)
}

func internList[E any](t *Interner[[]E], key []byte, list []E) []E {
	if len(list) == 0 {
		return nil
	}
	if kept, ok := t.Lookup(key); ok {
		return kept
	}
	return t.Keep(key, slices.Clip(slices.Clone(list)))
}

// InternParam returns ps's key parameter as decode, its svcb.Params
// accessor, reads it, interned in t by the parameter's wire bytes: decode
// runs only the first time a value is seen. It returns the zero value for
// a parameter that is absent or does not decode.
func InternParam[V any](t *Interner[V], ps svcb.Params, key svcb.ParamKey, decode func(svcb.Params) (V, bool)) (v V) {
	raw, has := ps.Get(key)
	if !has {
		return v
	}
	if kept, ok := t.Lookup(raw); ok {
		return kept
	}
	if decoded, ok := decode(ps); ok {
		return t.Keep(raw, decoded)
	}
	return v
}

// AppendKey appends to dst a content key of the record: its priority,
// target as spelt and parameters, each part length-prefixed, so two records
// have one key exactly when they are equal.
func (d *SVCBData) AppendKey(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint16(dst, d.Priority)
	dst = binary.AppendUvarint(dst, uint64(len(d.Target)))
	dst = append(dst, d.Target...)
	dst = binary.AppendUvarint(dst, uint64(len(d.Params)))
	for _, p := range d.Params {
		dst = binary.BigEndian.AppendUint16(dst, uint16(p.Key))
		dst = binary.AppendUvarint(dst, uint64(len(p.Value)))
		dst = append(dst, p.Value...)
	}
	return dst
}
