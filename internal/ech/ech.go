// Package ech implements TLS Encrypted Client Hello configuration handling
// in the shape of draft-ietf-tls-esni-13 (the draft deployed by Cloudflare
// and the DEfO OpenSSL/Nginx testbed used in the paper): the ECHConfigList
// encoding published in DNS HTTPS records, an HPKE-style sealed box built on
// X25519 + HKDF-SHA256 + AES-128-GCM from the standard library, and a
// rotating key manager modelling the 1–2 hour key rotation the paper
// measures on cloudflare-ech.com.
//
// An ECHConfigList has one reader, walkList. It checks the whole list (a
// malformed config anywhere fails it, even after a supported one) and hands
// each config over in place, its byte fields aliasing the list; a config of
// an unknown version carries only its version, for callers to skip.
// UnmarshalList copies every config out of that walk. SelectInPlace keeps
// the first supported one and copies nothing, so its PublicKey and
// PublicName are valid only while the list's bytes are: a caller reading a
// DNS answer hashes or copies them before the answer is reused.
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

// marshalList encodes a list of configs as an ECHConfigList, the format
// carried in the ech SvcParam.
func marshalList(configs []Config) []byte {
	var inner []byte
	for _, c := range configs {
		inner = append(inner, c.Marshal()...)
	}
	var b []byte
	b = binary.BigEndian.AppendUint16(b, uint16(len(inner)))
	return append(b, inner...)
}

// rawConfig is one ECHConfig as walkList reads it, in place: its byte
// fields alias the list. A config of a version other than DraftVersion
// carries its version alone.
type rawConfig struct {
	version       uint16
	id            uint8
	kem           uint16
	publicKey     []byte
	suites        []byte // 4 bytes per suite: KDF, then AEAD
	maxNameLength uint8
	publicName    []byte
	extensions    []byte
}

// walkList is the package's one reader of an ECHConfigList. It checks the
// whole list and calls fn on each config in list order, skipping nothing:
// a config of an unknown version is passed with its version alone, for the
// caller to ignore as clients must. What fn sees aliases b. A fault
// anywhere in the list is ErrMalformed (possibly wrapped), even after fn
// has seen a config that is fine.
func walkList(b []byte, fn func(rawConfig)) error {
	if len(b) < 2 {
		return ErrMalformed
	}
	total := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	if len(b) != total || total == 0 {
		return ErrMalformed
	}
	for len(b) > 0 {
		if len(b) < 4 {
			return ErrMalformed
		}
		c := rawConfig{version: binary.BigEndian.Uint16(b)}
		clen := int(binary.BigEndian.Uint16(b[2:]))
		b = b[4:]
		if len(b) < clen {
			return ErrMalformed
		}
		if c.version == DraftVersion {
			if err := c.readContents(b[:clen]); err != nil {
				return err
			}
		}
		b = b[clen:]
		fn(c)
	}
	return nil
}

// readContents reads ECHConfigContents (everything after version+length).
func (c *rawConfig) readContents(b []byte) error {
	r := reader{b: b}
	c.id = r.u8()
	c.kem = r.u16()
	c.publicKey = r.vec16()
	c.suites = r.vec16()
	if r.err != nil || len(c.suites)%4 != 0 || len(c.suites) == 0 {
		return ErrMalformed
	}
	c.maxNameLength = r.u8()
	c.publicName = r.vec8()
	c.extensions = r.vec16()
	if r.err != nil || len(r.b) != 0 {
		return ErrMalformed
	}
	if len(c.publicName) == 0 {
		return fmt.Errorf("ech: empty public_name: %w", ErrMalformed)
	}
	return nil
}

// supported reports whether this implementation can use the config:
// draft-13, the X25519 KEM and at least one supported suite.
func (c rawConfig) supported() bool {
	if c.version != DraftVersion || c.kem != KEMX25519SHA256 {
		return false
	}
	for i := 0; i < len(c.suites); i += 4 {
		if supportedSuite(binary.BigEndian.Uint16(c.suites[i:]), binary.BigEndian.Uint16(c.suites[i+2:])) {
			return true
		}
	}
	return false
}

// config copies the config out of its list.
func (c rawConfig) config() Config {
	if c.version != DraftVersion {
		return Config{Version: c.version}
	}
	suites := make([]CipherSuite, len(c.suites)/4)
	for i := range suites {
		suites[i] = CipherSuite{
			KDF:  binary.BigEndian.Uint16(c.suites[4*i:]),
			AEAD: binary.BigEndian.Uint16(c.suites[4*i+2:]),
		}
	}
	return Config{
		Version:       c.version,
		ConfigID:      c.id,
		KEM:           c.kem,
		PublicKey:     append([]byte(nil), c.publicKey...),
		CipherSuites:  suites,
		MaxNameLength: c.maxNameLength,
		PublicName:    string(c.publicName),
		Extensions:    append([]byte(nil), c.extensions...),
	}
}

// UnmarshalList parses an ECHConfigList into fresh configs, a copy-out of
// walkList. Configs with unknown versions are retained with only Version
// set and a nil PublicKey so callers can skip them, mirroring how clients
// must ignore unsupported versions.
func UnmarshalList(b []byte) ([]Config, error) {
	var configs []Config
	if err := walkList(b, func(c rawConfig) { configs = append(configs, c.config()) }); err != nil {
		return nil, err
	}
	return configs, nil
}

// ConfigRef is the config SelectConfig would pick from an ECHConfigList,
// read in place: PublicKey and PublicName alias the list's bytes.
type ConfigRef struct {
	ConfigID   uint8
	PublicKey  []byte
	PublicName []byte
}

// SelectInPlace is SelectConfig(UnmarshalList(b)) without the copies: it
// checks the whole list as UnmarshalList does (a malformed config is
// ErrMalformed even after a supported one) and returns the first supported
// config, or ErrNoSupported. The returned slices alias b and are valid
// only while b is: a caller that keeps anything copies or hashes it first.
func SelectInPlace(b []byte) (ConfigRef, error) {
	var ref ConfigRef
	found := false
	err := walkList(b, func(c rawConfig) {
		if !found && c.supported() {
			ref, found = ConfigRef{ConfigID: c.id, PublicKey: c.publicKey, PublicName: c.publicName}, true
		}
	})
	if err != nil {
		return ConfigRef{}, err
	}
	if !found {
		return ConfigRef{}, ErrNoSupported
	}
	return ref, nil
}

// reader is a tiny TLS-presentation-language cursor. The vectors it reads
// alias its input.
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

func (r *reader) vec8() []byte  { return r.take(int(r.u8())) }
func (r *reader) vec16() []byte { return r.take(int(r.u16())) }

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

// generateKeyPair creates a fresh X25519 key pair and its ECHConfig for the
// given config ID and public name. rng may be nil, in which case
// crypto/rand.Reader is used; a deterministic rng yields a deterministic
// key pair.
func generateKeyPair(rng io.Reader, configID uint8, publicName string) (*KeyPair, error) {
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
			if supportedSuite(cs.KDF, cs.AEAD) {
				return c, nil
			}
		}
	}
	return Config{}, ErrNoSupported
}

// supportedSuite reports whether the HPKE suite is HKDF-SHA256 +
// AES-128-GCM, the one this implementation seals with.
func supportedSuite(kdf, aead uint16) bool {
	return kdf == KDFHKDFSHA256 && aead == AEADAES128GCM
}
