GO ?= go

.PHONY: all build test race vet fmt bench bench-micro bench-smoke profile profile-fleet profile-hourly profile-serve fuzz-smoke trace-demo slo-demo verify loc

all: build test

build:
	$(GO) build ./...

# -shuffle=on randomises test order every run, so inter-test state
# dependencies can't hide behind source order.
test:
	$(GO) test -shuffle=on ./...

# Race-detector pass over the concurrency-heavy packages (the pipelined
# campaign scheduler, the substrate it fans out over, the serving
# layer's shared cache/pool/cooldown state, the pooled wire codec and
# its decode-scratch intern table, the telemetry registry every worker
# increments, the dataset store the pipeline commits into, the workload
# engine driving fleets inside the pipelined day replicas, the recursor,
# validator and authoritatives (forked recursors share one
# verified-signature memo across day workers; built messages come from and
# go back to one skeleton pool), the ECH key manager, whose per-epoch
# memo every day and hour worker reads through one lock, and the Tranco
# simulator, whose spelling table every day worker reads).
race:
	$(GO) test -race ./internal/scanner ./internal/simnet ./internal/core ./internal/transport ./internal/dnswire ./internal/obs ./internal/dataset ./internal/workload ./internal/resolver ./internal/dnssec ./internal/providers ./internal/ech ./internal/tranco

# Tier-1 verify as the roadmap defines it, then the nested benchmark
# module: bench/ compiles against this module's exported surface, so its
# vet and tests are what catch a signature the harness depends on moving.
# It ends with the aim-2 yardstick, make loc.
verify: build test bench-smoke loc

# The roadmap's aim-2 yardstick: non-test Go lines outside bench/, per
# top-level directory (and per package under internal/) and in total.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' -print0 | xargs -0 wc -l | \
	awk '$$2 != "total" { split($$2, p, "/"); n[p[2]] += $$1; t += $$1; \
		if (p[2] == "internal") n[p[2] "/" p[3]] += $$1 } \
	END { for (d in n) printf "%-22s %6d\n", d, n[d]; printf "%-22s %6d\n", "total", t }' | sort

vet:
	$(GO) vet ./...
	@unformatted="$$(gofmt -l .)"; \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed:"; echo "$$unformatted"; exit 1; \
	fi

fmt:
	gofmt -w .

# The repo benchmark (BENCHMARK.json; see bench/README.md): five
# workloads, each a fresh process, medians over timed repetitions.
bench:
	$(GO) run -C bench repro/bench

# The benchmark module's own vet and tests (toy-sized runs of every
# workload, digest and binding-condition checks included).
bench-smoke:
	$(GO) vet -C bench ./...
	$(GO) test -C bench ./...

# CPU + heap profiles of the repo benchmark's daily-direct shape (stub to
# public recursor, no fleet, one goroutine — the recursor, the validator
# and the authoritatives own the samples) for `go tool pprof`:
#
#	go tool pprof cpu.pprof
#	go tool pprof -sample_index=alloc_objects mem.pprof
profile:
	$(GO) test -run xxx -bench BenchmarkDailyDirect -benchtime 3x -cpuprofile cpu.pprof -memprofile mem.pprof .

# The same for the daily-fleet shape (four-frontend racing DoH/DoT/DoQ
# fleet, telemetry and anomaly tier on, one day worker per processor): the
# profile the roadmap's serving-layer items quote.
profile-fleet:
	$(GO) test -run xxx -bench BenchmarkDailyFleet -benchtime 3x -cpuprofile cpu.pprof -memprofile mem.pprof .

# The same for the hourly-ech shape (five days of hourly ECH scans through
# that fleet, each hour on forked recursors and a cold cache).
profile-hourly:
	$(GO) test -run xxx -bench BenchmarkHourlyECH -benchtime 3x -cpuprofile cpu.pprof -memprofile mem.pprof .

# The same for the serve-hot shape (a million open-loop clients from
# internal/workload on that fleet; only the engine run is timed);
# SERVE=Miss profiles serve-miss instead.
SERVE ?= Hot
profile-serve:
	$(GO) test -run xxx -bench 'BenchmarkServe$(SERVE)$$' -benchtime 3x -cpuprofile cpu.pprof -memprofile mem.pprof .

# Short fuzz pass over the wire-format decoders and the signature
# verifier, seeded with workload-shaped queries, served SvcParams and
# hand-mangled messages. Ten seconds per target is a smoke test, not a
# campaign: it proves the targets build, the corpus parses, and no
# quick-to-find panic has crept into Unpack, the SvcParams decoder (dirty
# reuse against a fresh decode), the ECHConfigList decoder (accepted lists
# re-marshal to themselves), the DoH GET parameter through the frontend
# (400 exactly when it does not decode, reused scratch against fresh), DoT frame
# reassembly (one write against the same bytes split anywhere), DoQ
# stream framing (prefix and zero-ID checks, pooled scratch reused after a
# valid stream against fresh scratch), the cache's TTL-slot walk (every
# slot a decoded record's TTL, dirty reuse against a fresh walk), RRSIG verification (whose memoised and plain verdicts must
# agree), or the DNSKEY side of it (DS construction, key tag, public-key
# decoding); and that the world's O(1)-seeded random source still gives
# math/rand's exact stream.
fuzz-smoke:
	$(GO) test ./internal/dnswire -fuzz 'FuzzUnpack$$' -fuzztime 10s -run xxx
	$(GO) test ./internal/dnswire -fuzz FuzzUnpackInto -fuzztime 10s -run xxx
	$(GO) test ./internal/svcb -fuzz FuzzUnpackParamsInto -fuzztime 10s -run xxx
	$(GO) test ./internal/ech -fuzz FuzzUnmarshalList -fuzztime 10s -run xxx
	$(GO) test ./internal/providers -fuzz FuzzStreamSource -fuzztime 10s -run xxx
	$(GO) test ./internal/transport -fuzz FuzzDoHDecodeRequest -fuzztime 10s -run xxx
	$(GO) test ./internal/transport -fuzz FuzzDoTWrite -fuzztime 10s -run xxx
	$(GO) test ./internal/transport -fuzz FuzzDoQStream -fuzztime 10s -run xxx
	$(GO) test ./internal/transport -fuzz FuzzAppendTTLSlots -fuzztime 10s -run xxx
	$(GO) test ./internal/dnssec -fuzz FuzzVerifyRRSIG -fuzztime 10s -run xxx
	$(GO) test ./internal/dnssec -fuzz FuzzDNSKEYDS -fuzztime 10s -run xxx

# Traced-exchange demo: a mixed-protocol fleet under the race strategy
# with every exchange traced, dumping the five costliest span trees —
# frontend receive, each dial attempt with its race role, the upstream
# answer, and the commit, all on virtual-time offsets.
trace-demo:
	$(GO) run ./cmd/dohserve -size 800 -frontends 4 -proto mixed -strategy race -queries 600 -hot 200 -clients 1000 -kill 0 -trace 5

# Anomaly-capture demo: a CI-sized campaign with the anomaly tier on
# (client event counters, tail-sampled traces, per-day SLO verdicts),
# printing the per-day capture table. The captures are identical for any
# -workers value — the determinism contract the tier is built on.
slo-demo:
	$(GO) run ./cmd/reproduce -size 2000 -exp slo -q

# Fast benchmark subset: substrate, authoritative-answer and serving-layer
# hot paths (skips the campaign-backed table/figure benchmarks, which
# rebuild a world), then one run each of the workload engine alone and of
# the two serve shapes (a million clients apiece, so one run, not 100).
bench-micro:
	$(GO) test -run xxx -bench 'BenchmarkDoH|BenchmarkTransport|BenchmarkFleetMissPath|BenchmarkDNSWire|BenchmarkResolveHTTPS|BenchmarkAuthoritativeAnswer|BenchmarkECHSealOpen|BenchmarkRRSIGSignVerify' -benchtime 100x .
	$(GO) test -run xxx -bench BenchmarkEngine -benchtime 1x ./internal/workload
	$(GO) test -run xxx -bench 'BenchmarkServe(Hot|Miss)$$' -benchtime 1x .
