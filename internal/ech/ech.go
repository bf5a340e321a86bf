// Package ech implements TLS Encrypted Client Hello configuration handling
// in the shape of draft-ietf-tls-esni-13 (the draft deployed by Cloudflare
// and the DEfO OpenSSL/Nginx testbed used in the paper): the ECHConfigList
// encoding published in DNS HTTPS records, an HPKE-style sealed box built on
// X25519 + HKDF-SHA256 + AES-128-GCM from the standard library, and a
// rotating key manager modelling the 1–2 hour key rotation the paper
// measures on cloudflare-ech.com.
package ech

import (
	"crypto/ecdh"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Protocol constants (draft-13 / RFC 9180 registry values).
const (
	// DraftVersion is the ECHConfig version field for draft-13.
	DraftVersion uint16 = 0xfe0d

	// KEMX25519SHA256 is DHKEM(X25519, HKDF-SHA256).
	KEMX25519SHA256 uint16 = 0x0020
	// KDFHKDFSHA256 is HKDF-SHA256.
	KDFHKDFSHA256 uint16 = 0x0001
	// AEADAES128GCM is AES-128-GCM.
	AEADAES128GCM uint16 = 0x0001
)

// Errors returned by the codec and crypto layers.
var (
	ErrMalformed      = errors.New("ech: malformed ECHConfigList")
	ErrNoSupported    = errors.New("ech: no supported ECHConfig in list")
	ErrDecryptFailure = errors.New("ech: decryption failure")
	ErrUnknownConfig  = errors.New("ech: unknown config_id")
)

// CipherSuite is an HPKE symmetric cipher suite (KDF + AEAD pair).
type CipherSuite struct {
	KDF  uint16
	AEAD uint16
}

// Config is a single ECHConfig: the public key material and metadata a
// client needs to encrypt its ClientHello toward a client-facing server.
type Config struct {
	Version       uint16
	ConfigID      uint8
	KEM           uint16
	PublicKey     []byte // X25519 public key (32 bytes for the supported KEM)
	CipherSuites  []CipherSuite
	MaxNameLength uint8
	PublicName    string // client-facing server name (SNI of the outer hello)
	Extensions    []byte // raw extensions block (opaque)
}

// Clone returns a deep copy of the config.
func (c Config) Clone() Config {
	out := c
	out.PublicKey = append([]byte(nil), c.PublicKey...)
	out.CipherSuites = append([]CipherSuite(nil), c.CipherSuites...)
	out.Extensions = append([]byte(nil), c.Extensions...)
	return out
}

// marshalContents encodes ECHConfigContents (everything after version+length).
func (c Config) marshalContents() []byte {
	var b []byte
	b = append(b, c.ConfigID)
	b = binary.BigEndian.AppendUint16(b, c.KEM)
	b = binary.BigEndian.AppendUint16(b, uint16(len(c.PublicKey)))
	b = append(b, c.PublicKey...)
	b = binary.BigEndian.AppendUint16(b, uint16(len(c.CipherSuites)*4))
	for _, cs := range c.CipherSuites {
		b = binary.BigEndian.AppendUint16(b, cs.KDF)
		b = binary.BigEndian.AppendUint16(b, cs.AEAD)
	}
	b = append(b, c.MaxNameLength)
	b = append(b, uint8(len(c.PublicName)))
	b = append(b, c.PublicName...)
	b = binary.BigEndian.AppendUint16(b, uint16(len(c.Extensions)))
	b = append(b, c.Extensions...)
	return b
}

// Marshal encodes the single ECHConfig (version, length, contents).
func (c Config) Marshal() []byte {
	contents := c.marshalContents()
	var b []byte
	b = binary.BigEndian.AppendUint16(b, c.Version)
	b = binary.BigEndian.AppendUint16(b, uint16(len(contents)))
	return append(b, contents...)
}

// MarshalList encodes a list of configs as an ECHConfigList, the format
// carried in the ech SvcParam.
func MarshalList(configs []Config) []byte {
	var inner []byte
	for _, c := range configs {
		inner = append(inner, c.Marshal()...)
	}
	var b []byte
	b = binary.BigEndian.AppendUint16(b, uint16(len(inner)))
	return append(b, inner...)
}

// UnmarshalList parses an ECHConfigList. Configs with unknown versions are
// retained with only Version set and a nil PublicKey so callers can skip
// them, mirroring how clients must ignore unsupported versions.
func UnmarshalList(b []byte) ([]Config, error) {
	if len(b) < 2 {
		return nil, ErrMalformed
	}
	total := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	if len(b) != total || total == 0 {
		return nil, ErrMalformed
	}
	var configs []Config
	for len(b) > 0 {
		if len(b) < 4 {
			return nil, ErrMalformed
		}
		version := binary.BigEndian.Uint16(b)
		clen := int(binary.BigEndian.Uint16(b[2:]))
		b = b[4:]
		if len(b) < clen {
			return nil, ErrMalformed
		}
		contents := b[:clen]
		b = b[clen:]
		if version != DraftVersion {
			configs = append(configs, Config{Version: version})
			continue
		}
		cfg, err := unmarshalContents(contents)
		if err != nil {
			return nil, err
		}
		cfg.Version = version
		configs = append(configs, cfg)
	}
	return configs, nil
}

func unmarshalContents(b []byte) (Config, error) {
	var c Config
	r := reader{b: b}
	c.ConfigID = r.u8()
	c.KEM = r.u16()
	c.PublicKey = r.vec16()
	suites := r.vec16()
	if r.err != nil || len(suites)%4 != 0 || len(suites) == 0 {
		return c, ErrMalformed
	}
	for i := 0; i < len(suites); i += 4 {
		c.CipherSuites = append(c.CipherSuites, CipherSuite{
			KDF:  binary.BigEndian.Uint16(suites[i:]),
			AEAD: binary.BigEndian.Uint16(suites[i+2:]),
		})
	}
	c.MaxNameLength = r.u8()
	c.PublicName = string(r.vec8())
	c.Extensions = r.vec16()
	if r.err != nil || len(r.b) != 0 {
		return c, ErrMalformed
	}
	if len(c.PublicName) == 0 {
		return c, fmt.Errorf("ech: empty public_name: %w", ErrMalformed)
	}
	return c, nil
}

// reader is a tiny TLS-presentation-language cursor.
type reader struct {
	b   []byte
	err error
}

func (r *reader) u8() uint8 {
	if r.err != nil || len(r.b) < 1 {
		r.err = ErrMalformed
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *reader) u16() uint16 {
	if r.err != nil || len(r.b) < 2 {
		r.err = ErrMalformed
		return 0
	}
	v := binary.BigEndian.Uint16(r.b)
	r.b = r.b[2:]
	return v
}

func (r *reader) take(n int) []byte {
	if r.err != nil || len(r.b) < n {
		r.err = ErrMalformed
		return nil
	}
	v := r.b[:n]
	r.b = r.b[n:]
	return v
}

func (r *reader) vec8() []byte  { return append([]byte(nil), r.take(int(r.u8()))...) }
func (r *reader) vec16() []byte { return append([]byte(nil), r.take(int(r.u16()))...) }

// KeyPair is an ECH key pair: the private X25519 key and the public Config
// that advertises it.
type KeyPair struct {
	Private *ecdh.PrivateKey
	Config  Config
}

// generateX25519 derives an X25519 private key from exactly 32 bytes of
// rng. ecdh.Curve.GenerateKey is NOT used: since Go 1.24 it draws from
// the system random source regardless of the reader it is handed, which
// silently breaks the seeded, replayable key schedules the key manager's
// determinism contract depends on.
func generateX25519(rng io.Reader) (*ecdh.PrivateKey, error) {
	var scalar [32]byte
	if _, err := io.ReadFull(rng, scalar[:]); err != nil {
		return nil, err
	}
	return ecdh.X25519().NewPrivateKey(scalar[:])
}

// GenerateKeyPair creates a fresh X25519 key pair and its ECHConfig for the
// given config ID and public name. rng may be nil, in which case
// crypto/rand.Reader is used; a deterministic rng yields a deterministic
// key pair.
func GenerateKeyPair(rng io.Reader, configID uint8, publicName string) (*KeyPair, error) {
	if rng == nil {
		rng = rand.Reader
	}
	priv, err := generateX25519(rng)
	if err != nil {
		return nil, fmt.Errorf("ech: generating X25519 key: %w", err)
	}
	if publicName == "" {
		return nil, fmt.Errorf("ech: public name must not be empty")
	}
	return &KeyPair{
		Private: priv,
		Config: Config{
			Version:       DraftVersion,
			ConfigID:      configID,
			KEM:           KEMX25519SHA256,
			PublicKey:     priv.PublicKey().Bytes(),
			CipherSuites:  []CipherSuite{{KDF: KDFHKDFSHA256, AEAD: AEADAES128GCM}},
			MaxNameLength: 64,
			PublicName:    publicName,
		},
	}, nil
}

// SelectConfig picks the first config in the list that this implementation
// supports (draft-13, X25519 KEM, HKDF-SHA256 + AES-128-GCM suite).
func SelectConfig(configs []Config) (Config, error) {
	for _, c := range configs {
		if c.Version != DraftVersion || c.KEM != KEMX25519SHA256 {
			continue
		}
		for _, cs := range c.CipherSuites {
			if cs.KDF == KDFHKDFSHA256 && cs.AEAD == AEADAES128GCM {
				return c, nil
			}
		}
	}
	return Config{}, ErrNoSupported
}
