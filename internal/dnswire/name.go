package dnswire

import (
	"errors"
	"fmt"
	"strings"
	"sync"
)

// Name handling. Throughout the framework, domain names are represented as
// fully-qualified, lower-case, dot-terminated strings ("example.com.").
// CanonicalName normalises arbitrary input into that form.

// Errors returned by name encoding/decoding.
var (
	ErrNameTooLong    = errors.New("dnswire: name exceeds 255 octets")
	ErrLabelTooLong   = errors.New("dnswire: label exceeds 63 octets")
	ErrEmptyLabel     = errors.New("dnswire: empty label")
	ErrBadPointer     = errors.New("dnswire: bad compression pointer")
	ErrTruncatedName  = errors.New("dnswire: truncated name")
	ErrTooManyPointer = errors.New("dnswire: compression pointer loop")
	ErrBadLabelByte   = errors.New("dnswire: label byte has no dotted-name form")
)

// CanonicalName lower-cases s and ensures a trailing dot. The root name is
// returned as ".". Input that is already canonical — the steady state on
// the query hot path — is returned as-is without allocating.
func CanonicalName(s string) string {
	if isCanonical(s) {
		return s
	}
	s = strings.ToLower(strings.TrimSpace(s))
	if s == "" || s == "." {
		return "."
	}
	if !strings.HasSuffix(s, ".") {
		s += "."
	}
	return s
}

// isCanonical reports in one pass whether CanonicalName would return s
// unchanged: dot-terminated, and every byte printable ASCII that is not an
// upper-case letter (anything else is left to TrimSpace and ToLower).
func isCanonical(s string) bool {
	if s == "" || s[len(s)-1] != '.' {
		return false
	}
	for i := 0; i < len(s); i++ {
		if c := s[i]; c <= ' ' || c >= 0x7f || 'A' <= c && c <= 'Z' {
			return false
		}
	}
	return true
}

// SplitLabels splits a canonical name into its labels, excluding the root.
// SplitLabels("www.example.com.") == ["www", "example", "com"].
func SplitLabels(name string) []string {
	name = CanonicalName(name)
	if name == "." {
		return nil
	}
	return strings.Split(strings.TrimSuffix(name, "."), ".")
}

// CountLabels returns the number of labels in the canonical name, the
// root excluded: as many as the dots that end them.
func CountLabels(name string) int {
	if name = CanonicalName(name); name == "." {
		return 0
	}
	return strings.Count(name, ".")
}

// ParentName returns the name with its leftmost label removed.
// ParentName("www.example.com.") == "example.com.". The parent of the root
// is the root.
func ParentName(name string) string {
	name = CanonicalName(name)
	if dot := strings.IndexByte(name, '.'); dot+1 < len(name) {
		return name[dot+1:] // a suffix of name: no allocation
	}
	return "."
}

// IsSubdomain reports whether child is equal to or underneath parent.
func IsSubdomain(child, parent string) bool {
	child, parent = CanonicalName(child), CanonicalName(parent)
	if parent == "." {
		return true
	}
	return child == parent || strings.HasSuffix(child, "."+parent)
}

// ApexOf returns the registrable apex assuming single-label TLDs
// ("a.b.example.com." → "example.com."). Names with fewer than two labels
// are returned unchanged. The apex is a suffix of the canonical name, so a
// canonical input costs no allocation.
func ApexOf(name string) string {
	name = CanonicalName(name)
	tld := strings.LastIndexByte(name[:len(name)-1], '.')
	if tld < 0 {
		return name
	}
	return name[strings.LastIndexByte(name[:tld], '.')+1:]
}

// validateCanonical applies the RFC 1035 length limits to an
// already-canonical, non-root, dot-terminated name. It walks the name in
// place — no label splitting — so the pack hot path stays allocation-free.
func validateCanonical(name string) error {
	total := 1 // root byte
	for pos := 0; pos < len(name); {
		dot := strings.IndexByte(name[pos:], '.')
		if dot == 0 {
			return ErrEmptyLabel
		}
		if dot > 63 {
			return ErrLabelTooLong
		}
		total += dot + 1
		pos += dot + 1
	}
	if total > 255 {
		return ErrNameTooLong
	}
	return nil
}

// validateNameBytes is validateCanonical over the byte form a wire decode
// produces (lower-case, dot-terminated), avoiding the string conversion.
func validateNameBytes(name []byte) error {
	if len(name) == 1 && name[0] == '.' {
		return nil
	}
	total := 1
	for pos := 0; pos < len(name); {
		dot := -1
		for i := pos; i < len(name); i++ {
			if name[i] == '.' {
				dot = i - pos
				break
			}
		}
		if dot == 0 {
			return ErrEmptyLabel
		}
		if dot > 63 {
			return ErrLabelTooLong
		}
		total += dot + 1
		pos += dot + 1
	}
	if total > 255 {
		return ErrNameTooLong
	}
	return nil
}

// compressionMap tracks name-suffix→offset mappings while packing a
// message. Offsets are relative to base, the message's start within the
// destination buffer, so AppendPack can encode into the middle of a larger
// frame and still emit receiver-correct pointers. A nil *compressionMap
// disables compression (used for RDATA fields where compression is
// forbidden, e.g. RRSIG signer names and SVCB targets).
type compressionMap struct {
	base int
	off  map[string]int
}

// cmapPool recycles compression maps across packs; the map is cleared on
// the way back in so no name strings are retained between messages.
var cmapPool = sync.Pool{New: func() any {
	return &compressionMap{off: make(map[string]int, 8)}
}}

func getCmap(base int) *compressionMap {
	cm := cmapPool.Get().(*compressionMap)
	cm.base = base
	return cm
}

func putCmap(cm *compressionMap) {
	clear(cm.off)
	cmapPool.Put(cm)
}

// packName appends the wire form of name to dst. When cmap is non-nil,
// compression pointers are emitted for previously seen suffixes and new
// suffixes are registered at their offsets. Suffix keys are sub-slices of
// the canonical name, so the walk allocates nothing.
func packName(dst []byte, name string, cmap *compressionMap) ([]byte, error) {
	name = CanonicalName(name)
	if name == "." {
		return append(dst, 0), nil
	}
	if err := validateCanonical(name); err != nil {
		return nil, err
	}
	for pos := 0; pos < len(name); {
		suffix := name[pos:]
		if cmap != nil {
			if off, ok := cmap.off[suffix]; ok {
				if off <= 0x3fff {
					return append(dst, 0xc0|byte(off>>8), byte(off)), nil
				}
			}
			if rel := len(dst) - cmap.base; rel <= 0x3fff {
				cmap.off[suffix] = rel
			}
		}
		dot := strings.IndexByte(suffix, '.')
		dst = append(dst, byte(dot))
		dst = append(dst, suffix[:dot]...)
		pos += dot + 1
	}
	return append(dst, 0), nil
}

// appendName decodes the (possibly compressed) name at msg[off:] into dst
// in canonical presentation form (lower-cased, dot-terminated, root as
// ".") and returns the appended buffer plus the offset just past the name
// in the original stream. It allocates nothing beyond dst growth.
//
// A label byte the dotted string cannot carry — a literal '.', which
// would read back as a label boundary, or anything outside printable
// ASCII, which CanonicalName would trim or rewrite — is rejected with
// ErrBadLabelByte. That is the byte class isCanonical tests, so every
// decoded name is a fixed point of CanonicalName: it re-packs to the
// labels it was decoded from, on packName's allocation-free branch.
func appendName(dst []byte, msg []byte, off int) ([]byte, int, error) {
	start := len(dst)
	ptrCount := 0
	end := -1 // offset after the name in the original stream
	for {
		if off >= len(msg) {
			return dst, 0, ErrTruncatedName
		}
		b := msg[off]
		switch {
		case b == 0:
			if end < 0 {
				end = off + 1
			}
			if len(dst) == start {
				dst = append(dst, '.')
			}
			if err := validateNameBytes(dst[start:]); err != nil {
				return dst, 0, err
			}
			return dst, end, nil
		case b&0xc0 == 0xc0:
			if off+1 >= len(msg) {
				return dst, 0, ErrTruncatedName
			}
			ptr := int(b&0x3f)<<8 | int(msg[off+1])
			if end < 0 {
				end = off + 2
			}
			if ptr >= off {
				return dst, 0, ErrBadPointer
			}
			ptrCount++
			if ptrCount > 32 {
				return dst, 0, ErrTooManyPointer
			}
			off = ptr
		case b&0xc0 != 0:
			return dst, 0, fmt.Errorf("dnswire: reserved label type %#x", b&0xc0)
		default:
			n := int(b)
			if off+1+n > len(msg) {
				return dst, 0, ErrTruncatedName
			}
			for _, c := range msg[off+1 : off+1+n] {
				if c == '.' || c <= ' ' || c >= 0x7f {
					return dst, 0, ErrBadLabelByte
				}
				if 'A' <= c && c <= 'Z' {
					c += 'a' - 'A'
				}
				dst = append(dst, c)
			}
			dst = append(dst, '.')
			off += 1 + n
		}
	}
}
