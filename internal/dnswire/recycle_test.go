package dnswire

import "testing"

// TestTrimRecycledCeiling pins the recycling ceiling: buffers at or under
// maxRecycledBuf keep their backing array (truncated to zero length),
// anything over is dropped for the GC. The ceiling is what stops one
// jumbo message from pinning its array in a pool for a whole campaign;
// every pooled envelope scratch of the serving layer (DoH request and
// response bodies, DoT frame reassembly, DoQ stream buffers) runs through
// the same helper.
func TestTrimRecycledCeiling(t *testing.T) {
	under := make([]byte, 100, maxRecycledBuf)
	if got := TrimRecycled(under); len(got) != 0 || cap(got) != maxRecycledBuf {
		t.Fatalf("under-ceiling buffer: got len=%d cap=%d, want len=0 cap=%d",
			len(got), cap(got), maxRecycledBuf)
	}
	over := make([]byte, 0, maxRecycledBuf+1)
	if got := TrimRecycled(over); got != nil {
		t.Fatalf("over-ceiling buffer kept: cap=%d, want nil", cap(got))
	}
	if got := TrimRecycled(nil); got != nil {
		t.Fatalf("TrimRecycled(nil) = %v, want nil", got)
	}
}

// TestPutWireBufCeiling drives the same ceiling through the public pool
// API: an oversized buffer handed to PutWireBuf must not come back out of
// GetWireBuf with its jumbo backing array intact.
func TestPutWireBufCeiling(t *testing.T) {
	big := make([]byte, maxRecycledBuf*2)
	PutWireBuf(&big)
	// The pool may or may not hand back the same pointer; what matters is
	// that no buffer it serves exceeds the ceiling.
	for i := 0; i < 8; i++ {
		bp := GetWireBuf()
		if cap(*bp) > maxRecycledBuf {
			t.Fatalf("pool served a buffer with cap %d over ceiling %d", cap(*bp), maxRecycledBuf)
		}
		PutWireBuf(bp)
	}
	PutWireBuf(nil) // must not panic
}

// TestDecodeScratchNameCeiling pins the decode scratch's name-memo
// ceiling: a scratch whose memo grew past maxRecycledNames drops the
// backing array on the way into the pool, and the retained memo never
// pins name strings from a past message.
func TestDecodeScratchNameCeiling(t *testing.T) {
	sc := &decodeScratch{names: make([]string, maxRecycledNames+1)}
	putDecScratch(sc)
	if sc.names != nil {
		t.Fatalf("over-ceiling name memo kept: cap=%d, want nil", cap(sc.names))
	}
	sc2 := &decodeScratch{names: append(make([]string, 0, 8), "kept.example.")}
	putDecScratch(sc2)
	if len(sc2.names) != 0 || cap(sc2.names) != 8 {
		t.Fatalf("under-ceiling memo: got len=%d cap=%d, want len=0 cap=8", len(sc2.names), cap(sc2.names))
	}
	// The string header must have been zeroed, not just truncated.
	if s := sc2.names[:1][0]; s != "" {
		t.Fatalf("recycled memo still pins %q", s)
	}
}
