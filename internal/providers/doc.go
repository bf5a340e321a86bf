// Package providers builds and serves the simulated server-side HTTPS-RR
// ecosystem: DNS provider behaviour models (Cloudflare's proxied default
// configuration, GoDaddy's AliasMode records, Google's empty-SvcParams
// ServiceMode, and a long tail of others), the per-domain configuration
// schedules (adoption, intermittency, provider switches, IP-hint drift,
// DNSSEC, ECH), and lightweight synthesized authoritative servers that
// answer the scanner's queries over the simnet.
//
// Every rate below is calibrated to a number reported in the paper
// (section references inline); absolute counts from the paper's 1M-domain
// population are scaled by Size/1M with a floor of 1 so the qualitative
// populations survive at small simulation scales.
//
// # Answers are read-only
//
// A Provider or TLDServer answer is a fresh message whose records may be
// shared with every other answer, day and fork: every RRset a server hands
// out is one immutable box (rrset) holding the records and room for their
// RRSIG, which it makes at most once, on its first signed ask. An unsigned
// ask gets the records, a signed zone's DO ask the records and the RRSIG,
// both capacity-clipped slices of the box's one array, so an append (a
// signed child's DS, say) moves to an array of its own; only a CNAME chain
// joins two boxes, [CNAME, target…, RRSIG(CNAME), RRSIG(target)], in a copy.
// Consumers copy or Clone; none writes through RR.Data, and no answer is
// ever recycled as a dnswire.UnpackInto target, and unsigned zones skip the
// signing path whole. A domain's boxes are keyed by what they are built
// from: its SOA set by (ProvidersAt(t)[0], day) in four slots by day modulo
// 4, so day workers on neighbouring days keep each other's, with RDATA its
// provider's zones share that day; its NS set and its referral by provider
// arrangement (the referral by OPT record too); its HTTPS, A, AAAA and CNAME
// sets per owner (apex or www), in one table made on the first positive
// answer, HTTPS by the identity of the provider's ECHConfigList (the box
// holds the list, so no other can take its address) and the side of
// H3Draft29SunsetDate, A by the address CurrentV4 serves, AAAA and CNAME by
// nothing; its DNSKEY and DS sets (the DS signed by its TLD) by its keys. A
// TLD's apex NS, SOA and DNSKEY and a provider's own NS and server A sets
// are built once per server. A miss replaces a box, never writes into it.
// Keys and signatures are world fixture: keys derive from (world seed,
// zone, role) and signatures from (key, RRset), nothing else.
//
// One value changes after it is handed out: an RRSIG's signature bytes.
// dnssec.SignRRset leaves the ECDSA step to the first read of the bytes
// (packing, Clone, String, verification), which fills them in once, under
// the record's sync.Once; RFC 6979 makes them the same whenever that is.
// Most signatures, a negative answer's SOA RRSIG above all, are never read.
// docs/ARCHITECTURE.md, "Authoritative side", has the tests that hold each
// rule.
package providers
