// Command browsertest runs the paper's §5 client-side experiments: it
// builds the controlled testbed (authoritative zone + web endpoints) and
// measures how each browser model handles HTTPS records and ECH, printing
// Tables 6 and 7 plus the failover matrix. Use -verbose to see every
// visit with its connection attempts (address, port, SNI, ALPN, ECH
// offered/accepted, error) and any follow-up DNS queries.
package main

import (
	"flag"
	"fmt"

	"repro/internal/browser"
)

func main() {
	verbose := flag.Bool("verbose", false, "print each visit's attempt log")
	flag.Parse()

	behaviors := browser.All()
	suites := []struct {
		title     string
		scenarios []browser.Scenario
	}{
		{"Table 6: HTTPS RR support from four major browsers", browser.Table6Scenarios()},
		{"Table 7: browser support and failover mechanisms of ECH", browser.Table7Scenarios()},
		{"§5.2.2: failover behaviours", browser.FailoverScenarios()},
	}
	for _, suite := range suites {
		t, _ := browser.RunMatrix(suite.title, suite.scenarios, behaviors)
		fmt.Println(t.Format())
		if *verbose {
			for _, sc := range suite.scenarios {
				for _, b := range behaviors {
					l := browser.NewLab()
					sc.Build(l)
					v := l.Visit(b, sc.URL)
					fmt.Printf("  %-28s %-8s %s\n", sc.Row, b.Name, v)
					for i, a := range v.Attempts {
						status := "ok"
						if a.Err != "" {
							status = a.Err
						}
						fmt.Printf("      attempt %d: %s:%d sni=%s alpn=%v ech=%v/%v (%s)\n",
							i+1, a.Addr, a.Port, a.SNI, a.ALPN, a.ECHOffered, a.ECHAccepted, status)
					}
					if len(v.FollowUpQueries) > 0 {
						fmt.Printf("      follow-up DNS: %v\n", v.FollowUpQueries)
					}
				}
			}
			fmt.Println()
		}
	}
	fmt.Println("legend: ● full support  ◐ fetched but unused  ○ no support / failure")
}
