GO ?= go

.PHONY: all build test race vet fmt bench bench-micro bench-smoke profile profile-fleet profile-hourly profile-serve attribute fuzz-smoke trace-demo slo-demo verify loc

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
# the decode name table every decode shares, the telemetry registry every worker
# increments, the dataset store the pipeline commits into, the workload
# engine driving fleets inside the pipelined day replicas, the recursor,
# validator and authoritatives (forked recursors share one
# verified-signature memo across day workers; built messages come from and
# go back to one skeleton pool), the ECH key manager, whose per-epoch
# memo every day and hour worker reads through one lock, the Tranco
# simulator, whose spelling table every day worker reads, and the zone
# store, its authoritative server and the manager that edits it, whose
# served records every concurrent recursor shares).
race:
	$(GO) test -race ./internal/scanner ./internal/simnet ./internal/core ./internal/transport ./internal/dnswire ./internal/obs ./internal/dataset ./internal/workload ./internal/resolver ./internal/dnssec ./internal/providers ./internal/ech ./internal/tranco ./internal/zone ./internal/authserver ./internal/manager

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

# CPU time and allocated bytes per layer of one root benchmark
# (W=<Benchmark>, by default BenchmarkDailyDirect): three runs, each a fresh
# process with its own CPU and memory profile, in attribute.out/. Each sample
# of `go tool pprof -traces` goes to the innermost repro/internal/<pkg> frame
# of its stack; GC workers and the background sweeper and scavenger form the
# gc row, and samples with no package frame the runtime row (a runtime frame
# innermost) or other. Prints two tables, each layer's median share and its
# range over the runs, largest first: CPU samples, then alloc_space.
W ?= BenchmarkDailyDirect
BENCHTIME ?= 1s
attribute:
	@mkdir -p attribute.out
	@$(GO) test -c -o attribute.out/root.test .
	@for i in 1 2 3; do \
		attribute.out/root.test -test.run xxx -test.bench '^$(W)$$' -test.benchtime $(BENCHTIME) \
			-test.cpuprofile attribute.out/cpu$$i.pprof -test.memprofile attribute.out/mem$$i.pprof | grep '^Benchmark' || exit 1; \
	done
	@for prof in cpu mem; do \
	if [ $$prof = cpu ]; then index=cpu; else index=alloc_space; echo; fi; \
	printf '%-12s %8s  %s\n' layer $${index%_*}% range; \
	for i in 1 2 3; do $(GO) tool pprof -sample_index=$$index -traces attribute.out/root.test attribute.out/$$prof$$i.pprof 2>/dev/null | \
	awk -v run=$$i 'function val(v) { if (v ~ /ms$$/) return v + 0; if (v ~ /us$$/) return v / 1000; \
			if (v ~ /ns$$/) return v / 1e6; if (v ~ /min$$/) return v * 60000; if (v ~ /kB$$/) return v * 1024; \
			if (v ~ /MB$$/) return v * 1048576; if (v ~ /GB$$/) return v * 1073741824; if (v ~ /B$$/) return v + 0; return v * 1000 } \
		function flush() { if (v > 0) { l = gc ? "gc" : layer != "" ? layer : inner ~ /^runtime\./ ? "runtime" : "other"; \
			t[l] += v; tot += v }; v = 0; gc = 0; layer = "" } \
		/^-+\+/ { flush(); first = 1; next } \
		first == "" || $$1 ~ /:$$/ { next } \
		{ f = $$1; if (first) { v = val($$1); f = inner = $$2; first = 0 }; \
			if (f ~ /^runtime\.(gcBgMarkWorker|bgsweep|bgscavenge)$$/) gc = 1; \
			if (layer == "" && f ~ /^repro\/internal\//) { sub(/^repro\/internal\//, "", f); sub(/[.\/].*/, "", f); layer = f } } \
		END { flush(); for (l in t) printf "%d %s %.2f\n", run, l, 100 * t[l] / tot }'; done | \
	awk '!($$2 in med) { k[++m] = $$2; med[$$2] = 0 } { s[$$2, $$1] = $$3; if ($$1 > n) n = $$1 } \
		END { if (!m) { print "attribute: no samples folded" > "/dev/stderr"; exit 1 }; \
			for (c = 1; c <= m; c++) { l = k[c]; for (i = 1; i <= n; i++) x[i] = ((l, i) in s) ? s[l, i] : 0; \
				for (i = 2; i <= n; i++) { y = x[i]; for (j = i - 1; j > 0 && x[j] > y; j--) x[j + 1] = x[j]; x[j + 1] = y }; \
				med[l] = n % 2 ? x[(n + 1) / 2] : (x[n / 2] + x[n / 2 + 1]) / 2; lo[l] = x[1]; hi[l] = x[n] }; \
			for (i = 2; i <= m; i++) { y = k[i]; for (j = i - 1; j > 0 && med[k[j]] < med[y]; j--) k[j + 1] = k[j]; k[j + 1] = y }; \
			for (c = 1; c <= m; c++) printf "%-12s %8.1f  %.1f-%.1f\n", k[c], med[k[c]], lo[k[c]], hi[k[c]] }' || exit 1; \
	done

# Short fuzz pass over the wire-format decoders and the signature
# verifier, seeded with workload-shaped queries, served SvcParams and
# hand-mangled messages. Ten seconds per target is a smoke test, not a
# campaign: it proves the targets build, the corpus parses, and no
# quick-to-find panic has crept into Unpack, the SvcParams decoder (dirty
# reuse against a fresh decode), the scanner's interned alpn and hint
# decode (equal to the svcb accessors, first read and table hit alike), the
# ECHConfigList reader (accepted lists
# re-marshal to themselves; the in-place selection picks what the copy-out
# does), the DoH GET parameter through the frontend
# (400 exactly when it does not decode, reused scratch against fresh), DoT
# frames (served in arrival order against reverse order), DoQ
# stream framing (prefix and zero-ID checks, pooled scratch reused after a
# valid stream against fresh scratch), the cache's TTL-slot walk (every
# slot a decoded record's TTL, dirty reuse against a fresh walk), the
# recursor under fuzzed authoritative replies (AD only on the authentic
# RRset, a bounded upstream count, nothing cached from a reply to another
# query), RRSIG verification (whose verdicts through the process memo and
# plain must agree), a signed set whose record, signature, key or time is
# changed after the signer seeded the memo with it (the same agreement),
# or the DNSKEY side of it (DS construction and matching against
# the reference builder, key tag, public-key decoding); that the pooled
# signing digest equals the reference builder's; that the in-package RFC
# 6979 signer's bytes equal crypto/ecdsa's for any derived key and digest;
# that the world's O(1)-seeded random source still gives math/rand's exact
# stream; and that a metric key renders as fmt's %s=%q over
# sort.Slice-sorted labels.
fuzz-smoke:
	$(GO) test ./internal/dnswire -fuzz 'FuzzUnpack$$' -fuzztime 10s -run xxx
	$(GO) test ./internal/dnswire -fuzz FuzzUnpackInto -fuzztime 10s -run xxx
	$(GO) test ./internal/svcb -fuzz FuzzUnpackParamsInto -fuzztime 10s -run xxx
	$(GO) test ./internal/scanner -fuzz FuzzSummarizeHTTPS -fuzztime 10s -run xxx
	$(GO) test ./internal/ech -fuzz FuzzUnmarshalList -fuzztime 10s -run xxx
	$(GO) test ./internal/providers -fuzz FuzzStreamSource -fuzztime 10s -run xxx
	$(GO) test ./internal/transport -fuzz FuzzDoHDecodeRequest -fuzztime 10s -run xxx
	$(GO) test ./internal/transport -fuzz FuzzDoTFrames -fuzztime 10s -run xxx
	$(GO) test ./internal/transport -fuzz FuzzDoQStream -fuzztime 10s -run xxx
	$(GO) test ./internal/transport -fuzz FuzzAppendTTLSlots -fuzztime 10s -run xxx
	$(GO) test ./internal/resolver -fuzz FuzzResolverUpstream -fuzztime 10s -run xxx
	$(GO) test ./internal/dnssec -fuzz FuzzVerifyRRSIG -fuzztime 10s -run xxx
	$(GO) test ./internal/dnssec -fuzz FuzzDNSKEYDS -fuzztime 10s -run xxx
	$(GO) test ./internal/dnssec -fuzz FuzzSeededMemo -fuzztime 10s -run xxx
	$(GO) test ./internal/dnssec -fuzz FuzzSigningDigest -fuzztime 10s -run xxx
	$(GO) test ./internal/dnssec -fuzz FuzzSignDigest -fuzztime 10s -run xxx
	$(GO) test ./internal/obs -fuzz FuzzMetricKey -fuzztime 10s -run xxx

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
