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
// shared with every other answer, day and fork: cached RRSIGs (per domain,
// keyed by the content of the RRset — zones are synthesized per query, so
// content is a set's only identity), per-key DNSKEY and DS RDATA, per-
// provider NS, glue and SOA RNAME values built on first use. Consumers copy
// or Clone; none writes through RR.Data, and no answer is ever recycled as
// a dnswire.UnpackInto target. Unsigned zones skip the signing path whole.
// Memos hand out whole sections: a domain's SOA set per (ProvidersAt(t)[0],
// day) — switches and multi-provider days move the primary — with RDATA its
// provider's zones share that day, and a child's referral per provider
// arrangement and OPT record, clipped so a signed child's DS append moves. A
// miss replaces a memo, never writes into it, nor allocates more than before.
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
