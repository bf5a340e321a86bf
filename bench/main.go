// Command bench is the repository's benchmark: five workloads, each run in
// a process of its own, reporting nine end-to-end metrics with tracing off
// and, in a second phase (-trace 1), the per-layer metrics. It measures
// the program from outside — by timing calls into exported functions and by
// interposing on the interfaces the layers already meet at — and changes
// nothing in it. README.md has the tables; BENCHMARK.json, at the root of
// the repository, is the machine-readable contract.
//
// Usage, from the repository root:
//
//	go run -C bench repro/bench                         every workload, end-to-end phase
//	go run -C bench repro/bench -trace 1                every workload, per-layer phase
//	go run -C bench repro/bench -workload serve-hot     one workload in this process
//	go run -C bench repro/bench -repeat                 the suite twice, compared against the bounds
//
// With -workload the last line of standard output is one JSON object:
// {"correct":…, "attempted":…, "failed":…, "metrics":{name:{"value":…,"unit":…}}}.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	smoke    bool
	repeat   bool
	outDir   string
}

// maxWorkers caps P: the day and hour pipelines are measured on at most
// this many cores so that results from larger hosts stay comparable.
const maxWorkers = 4

// worldSeed generates the simulated Internet every workload runs against.
// The world is the benchmark's fixture, like a data set loaded before a
// database benchmark: -seed varies what is asked of it, not the world.
// Another world is another adopter and signed share, which moves the
// per-op counts by 1.5-3 % (18 % on serve-hot, whose Zipf head is five
// names) and would force the count metrics' bounds that wide.
const worldSeed = 7

// probeBox is the time box of one layer probe in the trace phase.
const probeBox = 250 * time.Millisecond

func main() {
	var opt options
	flag.StringVar(&opt.workload, "workload", "", "run this workload in this process (default: every workload, one child process each)")
	flag.Int64Var(&opt.seed, "seed", 7, "seed of the generated client population and of the answer sample")
	flag.Float64Var(&opt.seconds, "seconds", 15, "seconds of timed repetitions to measure in the end-to-end phase")
	flag.IntVar(&opt.trace, "trace", 0, "1 runs the per-layer phase (traced rebuild and probes) instead of the end-to-end phase")
	flag.BoolVar(&opt.smoke, "smoke", false, "shrink every workload to a size that only exercises the code paths")
	flag.BoolVar(&opt.repeat, "repeat", false, "run the suite twice and fail if any end-to-end median moves by more than its bound")
	flag.StringVar(&opt.outDir, "out", "out", "directory for trace-<workload>.json")
	flag.Parse()
	if flag.NArg() > 0 || opt.trace < 0 || opt.trace > 1 || opt.seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(opt, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(opt options, stdout io.Writer) error {
	workers, err := setWorkers()
	if err != nil {
		return err
	}
	if opt.workload == "" {
		return runSuite(opt, stdout)
	}
	sh, ok := shapeByName(opt.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", opt.workload)
	}
	if opt.smoke {
		sh = sh.smoke()
	}
	fmt.Fprintf(stdout, "# workload=%s seed=%d world=%d nproc=%d P=%d go=%s GOGC=%s commit=%s\n",
		sh.name, opt.seed, worldSeed, runtime.NumCPU(), workers, runtime.Version(), gogc(), commit())
	var res result
	if opt.trace == 1 {
		res, err = tracePhase(sh, opt, workers, stdout)
	} else {
		res, err = endToEndPhase(sh, opt, workers, stdout)
	}
	if err != nil {
		return err
	}
	return res.print(stdout)
}

// setWorkers fixes GOMAXPROCS at P = min(nproc, maxWorkers) and refuses an
// environment that asks for more threads than there are CPUs: a pipelined
// speedup measured on oversubscribed cores is scheduler noise.
func setWorkers() (int, error) {
	nproc := runtime.NumCPU()
	if env := os.Getenv("GOMAXPROCS"); env != "" {
		if n, err := strconv.Atoi(env); err == nil && n > nproc {
			return 0, fmt.Errorf("GOMAXPROCS=%d exceeds the %d CPUs available", n, nproc)
		}
	}
	p := min(nproc, maxWorkers)
	runtime.GOMAXPROCS(p)
	return p, nil
}

func gogc() string {
	if v := os.Getenv("GOGC"); v != "" {
		return v
	}
	return "100"
}

// commit is the VCS revision stamped into the binary, when there is one
// (go run does not stamp, and the driver's checkout is not a repository).
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// endToEndPhase runs one untimed warm-up repetition and then timed
// repetitions until -seconds of timed wall are measured (one under -smoke),
// each on a freshly built campaign, checks that every repetition produced
// the same output, and reports medians.
func endToEndPhase(sh shape, opt options, workers int, log io.Writer) (result, error) {
	warm, err := runRep(sh, opt.seed, workers)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(log, "# warm-up: setup %.3fs wall %.3fs ops %d digest %s\n",
		warm.setup.Seconds(), warm.wall.Seconds(), warm.ops, warm.digest)
	var reps []repResult
	var timed time.Duration
	for {
		r, err := runRep(sh, opt.seed, workers)
		if err != nil {
			return result{}, err
		}
		if r.digest != warm.digest || r.ops != warm.ops {
			return result{}, fmt.Errorf("%s: repetition %d output %s (%d ops) differs from the warm-up's %s (%d ops)",
				sh.name, len(reps)+1, r.digest, r.ops, warm.digest, warm.ops)
		}
		reps = append(reps, r)
		timed += r.wall
		fmt.Fprintf(log, "# rep %d: setup %.3fs wall %.3fs cpu %.3fs\n", len(reps), r.setup.Seconds(), r.wall.Seconds(), r.cpu.Seconds())
		// Stop when another repetition would overshoot the time asked for
		// by more than stopping now undershoots it.
		if opt.smoke || timed.Seconds()+r.wall.Seconds()/2 >= opt.seconds {
			break
		}
	}
	if sh.kind == kindServe && (warm.hitRatio < sh.minHit || warm.hitRatio > sh.maxHit) {
		return result{}, fmt.Errorf("%s: fleet cache hit ratio %.3f outside the binding range [%.2f, %.2f]",
			sh.name, warm.hitRatio, sh.minHit, sh.maxHit)
	}
	fmt.Fprintf(log, "# checks passed: %d repetitions agree with the warm-up, %d sample answers each NOERROR, hit ratio %.3f, %d world-dictated scan errors\n",
		len(reps), sampleAnswers, warm.hitRatio, warm.expectedErrs)

	col := func(f func(repResult) float64) []float64 {
		out := make([]float64, len(reps))
		for i, r := range reps {
			out[i] = f(r)
		}
		return out
	}
	perOp := func(f func(repResult) float64) []float64 {
		return col(func(r repResult) float64 { return f(r) / float64(r.ops) })
	}
	last := reps[len(reps)-1]
	res := result{Correct: true, Attempted: last.attempted, Failed: last.failed, specs: endToEnd,
		samples: map[string][]float64{
			// Every repetition builds its campaign anew, so set-up has as
			// many samples as there are repetitions, the warm-up's included.
			"setup_s":                 append(col(func(r repResult) float64 { return r.setup.Seconds() }), warm.setup.Seconds()),
			"wall_s":                  col(func(r repResult) float64 { return r.wall.Seconds() }),
			"ops_per_s":               col(func(r repResult) float64 { return float64(r.ops) / r.wall.Seconds() }),
			"cpu_ms_per_kop":          perOp(func(r repResult) float64 { return r.cpu.Seconds() * 1e3 * 1e3 }), // s → ms, per op → per 1000 ops
			"allocs_per_op":           perOp(func(r repResult) float64 { return float64(r.mallocs) }),
			"alloc_bytes_per_op":      perOp(func(r repResult) float64 { return float64(r.allocBytes) }),
			"peak_rss_mb":             {peakRSSMiB()},
			"upstream_queries_per_op": perOp(func(r repResult) float64 { return float64(r.queries) }),
			"ok_ops_pct":              col(func(r repResult) float64 { return pct(float64(r.attempted-r.failed), float64(r.attempted)) }),
		}}
	return res, nil
}

// tracePhase runs the per-layer phase for one workload.
func tracePhase(sh shape, opt options, workers int, log io.Writer) (result, error) {
	t := &traceRun{sh: sh, seed: opt.seed, workers: workers, outDir: opt.outDir, log: log,
		box: probeBox, out: map[string]float64{}}
	if opt.smoke {
		t.box = 10 * time.Millisecond
	}
	ops, err := t.run()
	if err != nil {
		return result{}, err
	}
	// A traced run that produced a wrong output has already failed a check.
	res := result{Correct: true, Attempted: ops, specs: perLayer, samples: map[string][]float64{}}
	for _, spec := range perLayer {
		// A metric this workload's shape does not exercise reads 0.
		res.samples[spec.name] = []float64{t.out[spec.name]}
	}
	for name := range t.out {
		if _, ok := res.samples[name]; !ok {
			return result{}, fmt.Errorf("trace phase produced undeclared metric %q", name)
		}
	}
	return res, nil
}
