package browser

// Behavior captures one browser's HTTPS-RR and ECH handling policy.
type Behavior struct {
	Name    string
	Version string
	// RequiresDoH: the browser only issues HTTPS-RR queries over DoH
	// (Firefox). With a lab DoH stub configured (Lab.EnableDoH) those
	// queries ride a real transport frontend; without one the testbed's
	// resolver stands in for dns.google, as the paper's testbed did.
	RequiresDoH bool

	// UpgradesScheme: a fetched HTTPS record upgrades bare/http:// URLs
	// to HTTPS (Safari does not: it fetches but keeps port-80 HTTP).
	UpgradesScheme bool

	// FollowsAliasMode: AliasMode TargetName is chased with follow-up
	// A queries (only Safari).
	FollowsAliasMode bool
	// FollowsServiceTarget: ServiceMode TargetName is honoured (Safari,
	// Firefox); otherwise the browser connects to the owner's addresses.
	FollowsServiceTarget bool

	// UsesPort: the port SvcParam is used for the connection.
	UsesPort bool
	// PortFailover: retry on 443 when the advertised port fails.
	PortFailover bool

	// UsesIPHints: ipv4hint/ipv6hint addresses are considered at all.
	UsesIPHints bool
	// PrefersIPHints: hints are tried before A-record addresses.
	PrefersIPHints bool
	// AddrFailover: on a failed connection, the next candidate address
	// (hint vs A) is attempted.
	AddrFailover bool
	// DelayedAddrFailover marks Firefox's long wait before the retry
	// (behavioural annotation; the retry still happens).
	DelayedAddrFailover bool

	// UsesALPN: protocols from the alpn SvcParam are offered.
	UsesALPN bool
	// ALPNDualFallback: after connecting via h3, an h2 connection is
	// also attempted for compatibility (Firefox).
	ALPNDualFallback bool
	// IgnoresEmptyALPN: records with an empty alpn are disregarded
	// entirely (Chromium behaviour found in the code corroboration).
	IgnoresEmptyALPN bool

	// SupportsECH: the ech SvcParam is used to encrypt the ClientHello.
	SupportsECH bool
	// ECHMalformedFallback: an unparseable ECH config is ignored and a
	// standard TLS handshake proceeds (Firefox); otherwise hard failure.
	ECHMalformedFallback bool
	// ECHRetry: the server-provided retry configs are honoured.
	ECHRetry bool
	// ECHSplitModeRequery: the browser re-resolves the client-facing
	// server (public_name) and connects there (no browser implements
	// this; its absence causes the split-mode hard failure).
	ECHSplitModeRequery bool
}

// The four profiles measured in the paper (browser versions of Table 6).

// chrome returns the Chrome 120 behaviour profile.
func chrome() Behavior {
	return Behavior{
		Name: "Chrome", Version: "120.0.6099",
		UpgradesScheme:       true,
		FollowsAliasMode:     false,
		FollowsServiceTarget: false,
		UsesPort:             false,
		PortFailover:         false,
		UsesIPHints:          false,
		PrefersIPHints:       false,
		AddrFailover:         false,
		UsesALPN:             true,
		IgnoresEmptyALPN:     true,
		SupportsECH:          true,
		ECHMalformedFallback: false,
		ECHRetry:             true,
	}
}

// edge returns the Edge 120 profile (Chromium-derived; measured
// separately in the paper, identical outcomes).
func edge() Behavior {
	b := chrome()
	b.Name, b.Version = "Edge", "120.0.2210"
	return b
}

// safari returns the Safari 17.2.1 profile.
func safari() Behavior {
	return Behavior{
		Name: "Safari", Version: "17.2.1",
		UpgradesScheme:       false,
		FollowsAliasMode:     true,
		FollowsServiceTarget: true,
		UsesPort:             true,
		PortFailover:         true,
		UsesIPHints:          true,
		PrefersIPHints:       true,
		AddrFailover:         true,
		UsesALPN:             true,
		SupportsECH:          false,
	}
}

// firefox returns the Firefox 122 profile.
func firefox() Behavior {
	return Behavior{
		Name: "Firefox", Version: "122.0.1",
		RequiresDoH:          true,
		UpgradesScheme:       true,
		FollowsAliasMode:     false,
		FollowsServiceTarget: true,
		UsesPort:             true,
		PortFailover:         true,
		UsesIPHints:          true,
		PrefersIPHints:       true,
		AddrFailover:         true,
		DelayedAddrFailover:  true,
		UsesALPN:             true,
		ALPNDualFallback:     true,
		SupportsECH:          true,
		ECHMalformedFallback: true,
		ECHRetry:             true,
	}
}

// All returns the four measured browsers in the paper's column order.
func All() []Behavior {
	return []Behavior{chrome(), safari(), edge(), firefox()}
}
