package main

import (
	"bytes"
	"io"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/workload"
)

// ciShapes are the drills CI's mains smoke runs, at toy size.
var ciShapes = []string{
	"-size 300 -queries 200 -hot 50",
	"-size 300 -chaos -queries 100 -hot 50",
	"-size 300 -proto mixed -clients 1000 -queries 0 -epochs 5 -epochlen 1m -crowdmult 5 -crowdat 90s",
	"-size 300 -chaos -queries 150 -hot 50 -trace 2 -tail 4",
	"-size 300 -proto mixed -strategy race -chaos -queries 150 -hot 50",
	"-size 300 -proto mixed -kill 2",
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

// TestCrowdWithin: a flash crowd anchored to the drill's start reaches
// each epoch's engine as the part that falls inside that epoch.
func TestCrowdWithin(t *testing.T) {
	fc := workload.FlashCrowd{At: 90 * time.Second, Duration: time.Minute, Multiplier: 5}
	want := [][]workload.FlashCrowd{
		nil,
		{{At: 30 * time.Second, Duration: 30 * time.Second, Multiplier: 5}},
		{{At: 0, Duration: 30 * time.Second, Multiplier: 5}},
		nil,
	}
	for e, w := range want {
		if got := crowdWithin(fc, time.Duration(e)*time.Minute, time.Minute); !reflect.DeepEqual(got, w) {
			t.Errorf("epoch %d: got %+v, want %+v", e, got, w)
		}
	}
	fc.Multiplier = 0
	if got := crowdWithin(fc, time.Minute, time.Minute); got != nil {
		t.Errorf("crowd off: got %+v", got)
	}
}
