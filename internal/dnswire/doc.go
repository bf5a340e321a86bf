// Package dnswire implements the DNS message wire format (RFC 1035 and
// friends): header, questions, resource records, name compression and
// EDNS(0), for the record types the HTTPS-RR measurement framework speaks.
//
// # Record types
//
// The codec models A, AAAA, CNAME, NS, SOA, SVCB and HTTPS (RFC 9460), the
// DNSSEC types DS, DNSKEY and RRSIG (RFC 4034), and the OPT pseudo-record.
// Every other type decodes to RawData, its RDATA copied byte for byte and
// re-packed as it came (RFC 3597). That is safe for every type but the
// RFC 1035 ones whose RDATA holds a name a server may compress: MD, MF, MB,
// MG, MR, PTR, MINFO and MX (RFC 3597 §4). A copied compression pointer
// aims into whichever message re-packs the record, so a raw RDATA of those
// types whose name holds one is refused, failing the decode with
// ErrBadPointer; a plain-label name is kept. Names inside RDATA are
// compressed on the way out only for CNAME, NS and SOA.
//
// # Reuse APIs
//
// Packing comes in two forms: Pack allocates its result, for one-shot
// callers, and AppendPack appends into caller-owned storage. Decoding has
// one form, UnpackInto, which decodes into a caller-owned Message; a
// one-shot decode passes a new(Message). The serving layer's hot path uses
// only AppendPack and UnpackInto. The DoH GET parameter codec exists in the
// reuse form only (AppendEncodeDoHParam, DecodeDoHParamInto); the parameter
// travels as bytes aliasing the encoder's scratch, never as a string.
//
// A single record has the append form only: PackRR(dst, rr) appends its
// canonical, uncompressed wire (RFC 4034 §6.2) to dst, and
// RRSIGData.AppendSignedPrefix(dst) an RRSIG's fields but the signature;
// both fail on a name that does not pack, a signer's included.
// DNSSEC builds every signing input and DS digest input with these two
// into one recycled buffer; a one-shot caller passes nil.
//
// AppendPack(dst) appends the encoded message to dst and returns the
// extended slice, amortising to zero allocations when the caller
// recycles the buffer. Name compression runs on a pooled offset map, so
// packing itself allocates nothing either.
//
// UnpackInto(m, wire) decodes into an existing Message, truncating its
// question and section slices cap-preservingly and reusing RDATA values
// whose types line up slot-for-slot with what the backing array holds:
// byte slices are overwritten in place, and name strings are reused when
// the bytes match. Slots come from each array's capacity, not from the
// previous decode's length — sections, SvcParams and EDNS options alike —
// so a short message between two long ones leaves the long shape's
// storage in place. Names that do change are deduplicated
// twice — within the message (compression-pointer reuse yields one
// shared string) and across messages, via one bounded Interner that every
// decode in the process shares (2^15 names; past that a name is copied
// and not kept), so a decode whose names have all been seen before, on
// any goroutine, mints zero strings. The aliasing
// consequence: callers must not hold references into a Message across
// UnpackInto calls on it.
//
// # Skeletons
//
// NewQuery and Reply build in a skeleton: the Message, its single Question,
// its OPT record and that record's OPTData are one struct. Question and
// Additional are handed out with capacity 1, so an append moves to an
// array of the appender's own and never writes into the skeleton, the
// query it answers, or another reply to it; SetEDNS0 rewrites the inline
// OPT in place. A query with any other question count is copied.
//
// Skeletons come from one pool and Release is the way back, called by the
// one holder of a built message when it is dead: the consumer of a
// handler's reply once it has packed or cached what it said, a scan after
// its last question. Release zeroes the skeleton first, so the sections a
// reply carried (a server's shared records, a recursor's cache entry) are
// dropped, never kept as decode slots, and nothing is reachable from a
// pooled skeleton (in race builds, but for a poisoned header, question and
// OPT record). On a message it does not own (nil, decoded, hand-built, a
// value copy, already released) it does nothing.
//
// Pooled scratch follows one hygiene rule at every put-site: buffers
// over the recycling ceiling (TrimRecycled) are dropped for the GC
// rather than returned, so one jumbo message can never pin its backing
// array in a pool for the rest of a campaign.
package dnswire
