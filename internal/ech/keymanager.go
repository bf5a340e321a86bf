package ech

import (
	"crypto/rand"
	"fmt"
	"io"
	mathrand "math/rand"
	"sync"
	"time"
)

// KeyManager models the server-side ECH key lifecycle the paper measures:
// the client-facing provider rotates the key advertised in DNS every one to
// two hours, while keeping a window of recent keys that still decrypt, and
// offers retry configs when a client arrives with a stale key.
//
// Keys are a deterministic function of the rotation epoch (the number of
// whole periods since start), so a virtual clock may be moved freely in
// both directions — replaying July after simulating March yields July's
// keys again.
type KeyManager struct {
	mu         sync.Mutex
	publicName string
	period     time.Duration // rotation period for the advertised key
	retain     time.Duration // how long superseded keys keep decrypting
	start      time.Time
	seed       int64

	epochKeys map[int64]*epochKey
}

// epochKey is what a rotation epoch determines: its key pair and, from the
// first ConfigList of the epoch on, the marshalled list advertising it.
type epochKey struct {
	*KeyPair
	list []byte
}

// NewKeyManager creates a key manager that advertises publicName and
// rotates every period, retaining superseded keys for retain. rng is
// consumed once to derive the deterministic key-schedule seed.
func NewKeyManager(rng io.Reader, publicName string, period, retain time.Duration, start time.Time) (*KeyManager, error) {
	if publicName == "" {
		return nil, fmt.Errorf("ech: public name must not be empty")
	}
	if period <= 0 {
		return nil, fmt.Errorf("ech: rotation period must be positive")
	}
	var seedBytes [8]byte
	if rng == nil {
		rng = rand.Reader
	}
	if _, err := io.ReadFull(rng, seedBytes[:]); err != nil {
		return nil, err
	}
	var seed int64
	for _, b := range seedBytes {
		seed = seed<<8 | int64(b)
	}
	return &KeyManager{
		publicName: publicName,
		period:     period,
		retain:     retain,
		start:      start,
		seed:       seed,
		epochKeys:  map[int64]*epochKey{},
	}, nil
}

// PublicName returns the client-facing server name baked into the configs.
func (km *KeyManager) PublicName() string {
	return km.publicName
}

func (km *KeyManager) epochAt(t time.Time) int64 {
	e := int64(t.Sub(km.start) / km.period)
	if t.Before(km.start) {
		e--
	}
	return e
}

// keyFor returns (generating lazily) the deterministic key pair of epoch e.
func (km *KeyManager) keyFor(e int64) *epochKey {
	if k, ok := km.epochKeys[e]; ok {
		return k
	}
	rng := mathrand.New(mathrand.NewSource(km.seed ^ e*0x9e3779b97f4a7c))
	kp, err := generateKeyPair(rng, uint8(e&0xff), km.publicName)
	if err != nil {
		return nil
	}
	k := &epochKey{KeyPair: kp}
	km.epochKeys[e] = k
	return k
}

// ConfigList returns the ECHConfigList to publish in DNS as of now. It is
// marshalled once per epoch and shared by every caller in it: read-only,
// like the served records that carry it.
func (km *KeyManager) ConfigList(now time.Time) []byte {
	km.mu.Lock()
	defer km.mu.Unlock()
	k := km.keyFor(km.epochAt(now))
	if k.list == nil {
		k.list = marshalList([]Config{k.Config})
	}
	return k.list
}

// CurrentConfig returns a copy of the currently advertised config.
func (km *KeyManager) CurrentConfig(now time.Time) Config {
	km.mu.Lock()
	defer km.mu.Unlock()
	return km.keyFor(km.epochAt(now)).Config.Clone()
}

// Open attempts to decrypt a sealed ClientHelloInner with the key matching
// configID among the keys still inside the retention window. It returns
// ErrUnknownConfig when no retained key has that ID.
func (km *KeyManager) Open(now time.Time, configID uint8, enc, aad, ciphertext []byte) ([]byte, error) {
	km.mu.Lock()
	defer km.mu.Unlock()
	cur := km.epochAt(now)
	retainEpochs := int64(km.retain / km.period)
	for e := cur; e >= cur-retainEpochs; e-- {
		k := km.keyFor(e)
		if k == nil || k.Config.ConfigID != configID {
			continue
		}
		return k.Open(enc, aad, ciphertext)
	}
	return nil, ErrUnknownConfig
}

// RetryConfigs returns the ECHConfigList a client-facing server sends when
// decryption fails, allowing the client to reconnect with a fresh key
// (draft-ietf-tls-esni retry mechanism).
func (km *KeyManager) RetryConfigs(now time.Time) []byte {
	return km.ConfigList(now)
}

// keyCount returns how many keys (current + retained) can still decrypt.
func (km *KeyManager) keyCount(now time.Time) int {
	return int(km.retain/km.period) + 1
}
