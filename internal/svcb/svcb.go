// Package svcb implements the SVCB/HTTPS resource record SvcParams wire
// format and presentation output defined by RFC 9460 (Service Binding and
// Parameter Specification via the DNS).
//
// The package is deliberately independent of the DNS message codec: it deals
// only with the parameter list that follows SvcPriority and TargetName in the
// RDATA. The dnswire package composes it into full SVCB/HTTPS records.
package svcb

import (
	"cmp"
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"net/netip"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// ParamKey identifies an SvcParam. Values follow the IANA registry
// established by RFC 9460.
type ParamKey uint16

// Registered parameter keys (RFC 9460 §14.3.2).
const (
	KeyMandatory     ParamKey = 0
	KeyALPN          ParamKey = 1
	KeyNoDefaultALPN ParamKey = 2
	KeyPort          ParamKey = 3
	KeyIPv4Hint      ParamKey = 4
	KeyECH           ParamKey = 5
	KeyIPv6Hint      ParamKey = 6

	// keyInvalid marks the start of the reserved "Invalid key" range.
	keyInvalid ParamKey = 65535
)

var keyNames = map[ParamKey]string{
	KeyMandatory:     "mandatory",
	KeyALPN:          "alpn",
	KeyNoDefaultALPN: "no-default-alpn",
	KeyPort:          "port",
	KeyIPv4Hint:      "ipv4hint",
	KeyECH:           "ech",
	KeyIPv6Hint:      "ipv6hint",
}

// String returns the registered mnemonic for the key, or the generic
// "keyNNNNN" form mandated by RFC 9460 for unregistered keys.
func (k ParamKey) String() string {
	if s, ok := keyNames[k]; ok {
		return s
	}
	return "key" + strconv.FormatUint(uint64(k), 10)
}

// Param is a single SvcParam: a key and its wire-format value.
type Param struct {
	Key   ParamKey
	Value []byte
}

// Params is an ordered list of SvcParams. RFC 9460 requires strictly
// increasing key order on the wire; Pack enforces it and Unpack rejects
// violations.
type Params []Param

// Get returns the wire value for key and whether it is present.
func (ps Params) Get(key ParamKey) ([]byte, bool) {
	for _, p := range ps {
		if p.Key == key {
			return p.Value, true
		}
	}
	return nil, false
}

// Has reports whether key is present.
func (ps Params) Has(key ParamKey) bool {
	_, ok := ps.Get(key)
	return ok
}

// Set inserts or replaces the value for key, keeping the list sorted.
func (ps *Params) Set(key ParamKey, value []byte) {
	for i := range *ps {
		if (*ps)[i].Key == key {
			(*ps)[i].Value = value
			return
		}
	}
	if *ps == nil {
		*ps = make(Params, 0, 4) // room for the usual alpn, two hints and ech
	}
	*ps = append(*ps, Param{Key: key, Value: value})
	// On a list this short slices.SortFunc is an insertion sort: it slides
	// the new key into place, with no reflection-based swapper to allocate.
	slices.SortFunc(*ps, byKey)
}

func byKey(a, b Param) int { return cmp.Compare(a.Key, b.Key) }

// Delete removes key from the list if present.
func (ps *Params) Delete(key ParamKey) {
	for i := range *ps {
		if (*ps)[i].Key == key {
			*ps = append((*ps)[:i], (*ps)[i+1:]...)
			return
		}
	}
}

// Clone returns a deep copy of the parameter list.
func (ps Params) Clone() Params {
	if ps == nil {
		return nil
	}
	out := make(Params, len(ps))
	for i, p := range ps {
		out[i] = Param{Key: p.Key, Value: append([]byte(nil), p.Value...)}
	}
	return out
}

// Pack appends the wire encoding of the parameter list to dst, in the key
// order RFC 9460 §2.2 requires. A list already in that order — anything
// Set built or UnpackParamsInto accepted — is packed as it stands; only an
// unordered one is copied and sorted first.
func (ps Params) Pack(dst []byte) ([]byte, error) {
	sorted := ps
	if !slices.IsSortedFunc(ps, byKey) {
		sorted = slices.Clone(ps)
		slices.SortStableFunc(sorted, byKey)
	}
	for i, p := range sorted {
		if i > 0 && sorted[i-1].Key == p.Key {
			return nil, fmt.Errorf("svcb: duplicate SvcParam key %v", p.Key)
		}
		if len(p.Value) > 65535 {
			return nil, fmt.Errorf("svcb: SvcParam %v value exceeds 65535 bytes", p.Key)
		}
		dst = binary.BigEndian.AppendUint16(dst, uint16(p.Key))
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(p.Value)))
		dst = append(dst, p.Value...)
	}
	return dst, nil
}

// UnpackParamsInto parses a wire-format SvcParams blob into the recycled
// params slice (nil for a fresh decode), enforcing the strictly increasing
// key order RFC 9460 requires. It reuses params' backing array and each
// slot's Value buffer.
// Slots are taken from the array's capacity, so a list that shrank keeps
// the Value buffers of its longer past; re-decoding a blob no longer than
// any decoded before allocates nothing.
func UnpackParamsInto(params Params, b []byte) (Params, error) {
	prevSlots := params[:cap(params)]
	ps := params[:0]
	prev := -1
	for len(b) > 0 {
		if len(b) < 4 {
			return nil, fmt.Errorf("svcb: truncated SvcParam header (%d bytes left)", len(b))
		}
		key := ParamKey(binary.BigEndian.Uint16(b))
		vlen := int(binary.BigEndian.Uint16(b[2:]))
		b = b[4:]
		if len(b) < vlen {
			return nil, fmt.Errorf("svcb: SvcParam %v value truncated: want %d bytes, have %d", key, vlen, len(b))
		}
		if int(key) <= prev {
			return nil, fmt.Errorf("svcb: SvcParam keys not in strictly increasing order (%v after %d)", key, prev)
		}
		prev = int(key)
		// Read the recycled slot's Value before append overwrites the slot.
		var old []byte
		if len(ps) < len(prevSlots) {
			old = prevSlots[len(ps)].Value[:0]
		}
		ps = append(ps, Param{Key: key, Value: append(old, b[:vlen]...)})
		b = b[vlen:]
	}
	return ps, nil
}

// Validate applies the RFC 9460 per-key semantic checks plus the mandatory
// parameter rules: mandatory must not list itself, must be sorted and unique,
// and every listed key must be present.
func (ps Params) Validate() error {
	for _, p := range ps {
		if err := validateValue(p.Key, p.Value); err != nil {
			return err
		}
	}
	if v, ok := ps.Get(KeyMandatory); ok {
		keys, err := decodeMandatory(v)
		if err != nil {
			return err
		}
		for _, k := range keys {
			if k == KeyMandatory {
				return fmt.Errorf("svcb: mandatory list must not include mandatory itself")
			}
			if !ps.Has(k) {
				return fmt.Errorf("svcb: mandatory key %v missing from SvcParams", k)
			}
		}
	}
	return nil
}

func validateValue(key ParamKey, v []byte) error {
	switch key {
	case KeyMandatory:
		_, err := decodeMandatory(v)
		return err
	case KeyALPN:
		_, err := decodeALPN(v)
		return err
	case KeyNoDefaultALPN:
		if len(v) != 0 {
			return fmt.Errorf("svcb: no-default-alpn must have empty value")
		}
	case KeyPort:
		if len(v) != 2 {
			return fmt.Errorf("svcb: port value must be 2 bytes, got %d", len(v))
		}
	case KeyIPv4Hint:
		if len(v) == 0 || len(v)%4 != 0 {
			return fmt.Errorf("svcb: ipv4hint length %d not a positive multiple of 4", len(v))
		}
	case KeyIPv6Hint:
		if len(v) == 0 || len(v)%16 != 0 {
			return fmt.Errorf("svcb: ipv6hint length %d not a positive multiple of 16", len(v))
		}
	case KeyECH:
		if len(v) == 0 {
			return fmt.Errorf("svcb: ech value must not be empty")
		}
	}
	return nil
}

func decodeMandatory(v []byte) ([]ParamKey, error) {
	if len(v) == 0 || len(v)%2 != 0 {
		return nil, fmt.Errorf("svcb: mandatory value length %d not a positive multiple of 2", len(v))
	}
	keys := make([]ParamKey, 0, len(v)/2)
	prev := -1
	for i := 0; i < len(v); i += 2 {
		k := ParamKey(binary.BigEndian.Uint16(v[i:]))
		if int(k) <= prev {
			return nil, fmt.Errorf("svcb: mandatory keys not strictly increasing")
		}
		prev = int(k)
		keys = append(keys, k)
	}
	return keys, nil
}

// Mandatory returns the decoded mandatory key list, if present and valid.
func (ps Params) Mandatory() ([]ParamKey, bool) {
	v, ok := ps.Get(KeyMandatory)
	if !ok {
		return nil, false
	}
	keys, err := decodeMandatory(v)
	if err != nil {
		return nil, false
	}
	return keys, true
}

// encodeALPN encodes a list of ALPN protocol identifiers into wire format:
// a sequence of length-prefixed strings.
func encodeALPN(protos []string) ([]byte, error) {
	var out []byte
	for _, p := range protos {
		if len(p) == 0 || len(p) > 255 {
			return nil, fmt.Errorf("svcb: alpn id %q length out of range", p)
		}
		out = append(out, byte(len(p)))
		out = append(out, p...)
	}
	return out, nil
}

// decodeALPN decodes a wire-format alpn value into protocol identifiers.
func decodeALPN(v []byte) ([]string, error) {
	var protos []string
	for len(v) > 0 {
		n := int(v[0])
		v = v[1:]
		if n == 0 {
			return nil, fmt.Errorf("svcb: zero-length alpn id")
		}
		if len(v) < n {
			return nil, fmt.Errorf("svcb: truncated alpn id")
		}
		protos = append(protos, string(v[:n]))
		v = v[n:]
	}
	if len(protos) == 0 {
		return nil, fmt.Errorf("svcb: empty alpn list")
	}
	return protos, nil
}

// ALPN returns the decoded alpn protocol list, if present and valid.
func (ps Params) ALPN() ([]string, bool) {
	v, ok := ps.Get(KeyALPN)
	if !ok {
		return nil, false
	}
	protos, err := decodeALPN(v)
	if err != nil {
		return nil, false
	}
	return protos, true
}

// SetALPN sets the alpn parameter from a protocol list.
func (ps *Params) SetALPN(protos []string) error {
	v, err := encodeALPN(protos)
	if err != nil {
		return err
	}
	ps.Set(KeyALPN, v)
	return nil
}

// Port returns the decoded port parameter, if present and valid.
func (ps Params) Port() (uint16, bool) {
	v, ok := ps.Get(KeyPort)
	if !ok || len(v) != 2 {
		return 0, false
	}
	return binary.BigEndian.Uint16(v), true
}

// SetPort sets the port parameter.
func (ps *Params) SetPort(port uint16) {
	ps.Set(KeyPort, binary.BigEndian.AppendUint16(nil, port))
}

// IPv4Hints returns the decoded ipv4hint addresses, if present and valid.
func (ps Params) IPv4Hints() ([]netip.Addr, bool) {
	v, ok := ps.Get(KeyIPv4Hint)
	if !ok || len(v) == 0 || len(v)%4 != 0 {
		return nil, false
	}
	addrs := make([]netip.Addr, 0, len(v)/4)
	for i := 0; i < len(v); i += 4 {
		addr, _ := netip.AddrFromSlice(v[i : i+4])
		addrs = append(addrs, addr)
	}
	return addrs, true
}

// SetIPv4Hints sets the ipv4hint parameter. All addresses must be IPv4.
func (ps *Params) SetIPv4Hints(addrs []netip.Addr) error {
	return ps.SetHintsIn(KeyIPv4Hint, nil, addrs)
}

// IPv6Hints returns the decoded ipv6hint addresses, if present and valid.
func (ps Params) IPv6Hints() ([]netip.Addr, bool) {
	v, ok := ps.Get(KeyIPv6Hint)
	if !ok || len(v) == 0 || len(v)%16 != 0 {
		return nil, false
	}
	addrs := make([]netip.Addr, 0, len(v)/16)
	for i := 0; i < len(v); i += 16 {
		addr, _ := netip.AddrFromSlice(v[i : i+16])
		addrs = append(addrs, addr)
	}
	return addrs, true
}

// SetIPv6Hints sets the ipv6hint parameter. All addresses must be IPv6.
func (ps *Params) SetIPv6Hints(addrs []netip.Addr) error {
	return ps.SetHintsIn(KeyIPv6Hint, nil, addrs)
}

// SetHintsIn sets key, ipv4hint or ipv6hint, to addrs, which must all be of
// its family, writing the value over buf's storage: a caller whose buf has
// room for the addresses allocates nothing.
func (ps *Params) SetHintsIn(key ParamKey, buf []byte, addrs []netip.Addr) error {
	v := buf[:0]
	for _, a := range addrs {
		switch {
		case key == KeyIPv4Hint && a.Is4():
			b := a.As4()
			v = append(v, b[:]...)
		case key == KeyIPv6Hint && a.Is6() && !a.Is4In6():
			b := a.As16()
			v = append(v, b[:]...)
		default:
			return fmt.Errorf("svcb: %v is not an address for %s", a, key)
		}
	}
	if len(v) == 0 {
		return fmt.Errorf("svcb: empty %s list", key)
	}
	ps.Set(key, v)
	return nil
}

// SameAddrSet reports whether a and b hold the same addresses, in any order
// and with any repeats: the test of whether a name's IP hints agree with its
// A or AAAA records (RFC 9460 §7.3; the paper's §4.3.5 mismatch).
func SameAddrSet(a, b []netip.Addr) bool {
	for _, x := range a {
		if !slices.Contains(b, x) {
			return false
		}
	}
	for _, y := range b {
		if !slices.Contains(a, y) {
			return false
		}
	}
	return true
}

// ECH returns the raw ECHConfigList bytes, if the ech parameter is present.
func (ps Params) ECH() ([]byte, bool) {
	return ps.Get(KeyECH)
}

// SetECH sets the ech parameter to the given ECHConfigList bytes.
func (ps *Params) SetECH(configList []byte) {
	ps.Set(KeyECH, configList)
}

// SetMandatory sets the mandatory parameter from a key list.
func (ps *Params) SetMandatory(keys []ParamKey) error {
	ks := append([]ParamKey(nil), keys...)
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	var v []byte
	for i, k := range ks {
		if k == KeyMandatory {
			return fmt.Errorf("svcb: mandatory list must not include mandatory")
		}
		if i > 0 && ks[i-1] == k {
			return fmt.Errorf("svcb: duplicate key %v in mandatory list", k)
		}
		v = binary.BigEndian.AppendUint16(v, uint16(k))
	}
	if len(v) == 0 {
		return fmt.Errorf("svcb: empty mandatory list")
	}
	ps.Set(KeyMandatory, v)
	return nil
}

// String renders the parameter list in RFC 9460 presentation format,
// space-separated, in key order.
func (ps Params) String() string {
	sorted := make(Params, len(ps))
	copy(sorted, ps)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	parts := make([]string, 0, len(sorted))
	for _, p := range sorted {
		parts = append(parts, formatParam(p))
	}
	return strings.Join(parts, " ")
}

func formatParam(p Param) string {
	switch p.Key {
	case KeyMandatory:
		if keys, err := decodeMandatory(p.Value); err == nil {
			names := make([]string, len(keys))
			for i, k := range keys {
				names[i] = k.String()
			}
			return "mandatory=" + strings.Join(names, ",")
		}
	case KeyALPN:
		if protos, err := decodeALPN(p.Value); err == nil {
			return "alpn=" + strings.Join(protos, ",")
		}
	case KeyNoDefaultALPN:
		return "no-default-alpn"
	case KeyPort:
		if len(p.Value) == 2 {
			return "port=" + strconv.Itoa(int(binary.BigEndian.Uint16(p.Value)))
		}
	case KeyIPv4Hint:
		if addrs, ok := (Params{p}).IPv4Hints(); ok {
			return "ipv4hint=" + joinAddrs(addrs)
		}
	case KeyIPv6Hint:
		if addrs, ok := (Params{p}).IPv6Hints(); ok {
			return "ipv6hint=" + joinAddrs(addrs)
		}
	case KeyECH:
		return "ech=" + base64.StdEncoding.EncodeToString(p.Value)
	}
	// Unregistered or malformed: generic opaque form.
	return fmt.Sprintf("%s=%q", p.Key, p.Value)
}

func joinAddrs(addrs []netip.Addr) string {
	parts := make([]string, len(addrs))
	for i, a := range addrs {
		parts[i] = a.String()
	}
	return strings.Join(parts, ",")
}
