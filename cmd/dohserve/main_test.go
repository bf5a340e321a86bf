package main

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// ciShapes are the drills CI's mains smoke runs, at toy size.
var ciShapes = []string{
	"-size 300 -queries 200 -hot 50",
	"-size 300 -chaos -queries 100 -hot 50",
	"-size 300 -proto mixed -clients 1000 -queries 0 -epochs 5 -epochlen 1m",
	"-size 300 -chaos -queries 150 -hot 50 -trace 2 -tail 4",
	"-size 300 -proto mixed -strategy race -chaos -queries 150 -hot 50",
	"-size 300 -proto mixed -kill 2",
	"-size 300 -seed 2 -frontends 2 -queries 200 -hot 50",
}

var (
	totalsLine = regexp.MustCompile(`(?m)^(\d+) queries from .* (\d+) stale,`)
	benchedRow = regexp.MustCompile(`(?m)^  \S+ +queries .* benched (\S+) `)
)

// flagValue returns the value of -name in args, or def when it is absent.
func flagValue(args []string, name string, def int) int {
	for i, a := range args {
		if a == "-"+name {
			v, _ := strconv.Atoi(args[i+1])
			return v
		}
	}
	return def
}

// TestCIShapes runs every CI shape twice: stdout must be byte-identical,
// the drill must drive exactly -queries queries, -chaos must serve stale
// answers, and -kill N must leave exactly N pool members benched.
func TestCIShapes(t *testing.T) {
	for _, shape := range ciShapes {
		t.Run(shape, func(t *testing.T) {
			args := strings.Fields(shape)
			var first, second bytes.Buffer
			if err := run(args, &first, io.Discard); err != nil {
				t.Fatal(err)
			}
			if err := run(args, &second, io.Discard); err != nil {
				t.Fatal(err)
			}
			out := first.String()
			if out != second.String() {
				t.Fatalf("two runs printed different stdout:\n%s\n---\n%s", out, second.String())
			}

			m := totalsLine.FindStringSubmatch(out)
			if m == nil {
				t.Fatalf("no totals line in:\n%s", out)
			}
			driven, _ := strconv.Atoi(m[1])
			if q := flagValue(args, "queries", 2000); (q > 0 && driven != q) || driven == 0 {
				t.Errorf("drove %d queries, want -queries %d (0: any positive count)", driven, q)
			}
			if stale, _ := strconv.Atoi(m[2]); strings.Contains(shape, "-chaos") && stale == 0 {
				t.Errorf("-chaos served no stale answers")
			}
			benched := 0
			for _, row := range benchedRow.FindAllStringSubmatch(out, -1) {
				if row[1] != "0s" {
					benched++
				}
			}
			if kill := flagValue(args, "kill", 1); benched != kill {
				t.Errorf("%d pool members benched, want -kill %d", benched, kill)
			}
		})
	}
}

// TestCIShapesCoverEveryFlag keeps the flag surface and CI in step: every
// flag dohserve defines is exercised by some CI shape, and CI's mains
// smoke runs exactly the shapes TestCIShapes checks.
func TestCIShapesCoverEveryFlag(t *testing.T) {
	var usage bytes.Buffer
	if err := run([]string{"-h"}, io.Discard, &usage); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("run -h: %v", err)
	}
	flags := regexp.MustCompile(`(?m)^  -(\w+)`).FindAllStringSubmatch(usage.String(), -1)
	if len(flags) == 0 {
		t.Fatalf("no flags in the usage text:\n%s", usage.String())
	}
	for _, f := range flags {
		if !slices.ContainsFunc(ciShapes, func(shape string) bool {
			return slices.Contains(strings.Fields(shape), "-"+f[1])
		}) {
			t.Errorf("flag -%s appears in no CI shape", f[1])
		}
	}

	ci, err := os.ReadFile("../../.github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	var inCI []string
	for _, m := range regexp.MustCompile(`(?m)go run \./cmd/dohserve ([^>\n]*?)\s*(?:>.*)?$`).FindAllStringSubmatch(string(ci), -1) {
		if !slices.Contains(inCI, m[1]) {
			inCI = append(inCI, m[1])
		}
	}
	want := slices.Clone(ciShapes)
	slices.Sort(inCI)
	slices.Sort(want)
	if !slices.Equal(inCI, want) {
		t.Errorf("ci.yml runs dohserve shapes\n  %q\nbut ciShapes holds\n  %q", inCI, want)
	}
}
