package dnswire

import "sync"

// Recycled-buffer hygiene. Every sync.Pool put-site in the hot path —
// this package's and the serving layer's — runs its buffer through
// TrimRecycled so a single jumbo message (a 64KiB TCP response, a fat TXT
// set) cannot pin its backing array in the pool for the rest of a
// campaign.
const (
	// maxRecycledBuf caps the capacity of byte buffers returned to pools.
	maxRecycledBuf = 16 << 10
	// maxRecycledNames caps the decode scratch's name-memo backing array.
	maxRecycledNames = 512
)

// TrimRecycled returns b truncated to zero length, or nil when its backing
// array exceeds the recycling ceiling and should be dropped for the GC.
func TrimRecycled(b []byte) []byte {
	if cap(b) > maxRecycledBuf {
		return nil
	}
	return b[:0]
}

// wireBufPool recycles whole-message wire buffers (DoT and DoQ framing,
// transient packs).
var wireBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 1024)
	return &b
}}

// GetWireBuf borrows a zero-length wire buffer from the package pool.
// Callers hand it back with PutWireBuf when the encoded bytes are no longer
// referenced; the pool drops oversized backing arrays on the way in.
func GetWireBuf() *[]byte {
	bp := wireBufPool.Get().(*[]byte)
	*bp = (*bp)[:0]
	return bp
}

// PutWireBuf returns a buffer obtained from GetWireBuf (or any buffer the
// caller owns outright) to the pool, applying the recycling ceiling.
func PutWireBuf(bp *[]byte) {
	if bp == nil {
		return
	}
	*bp = TrimRecycled(*bp)
	wireBufPool.Put(bp)
}
