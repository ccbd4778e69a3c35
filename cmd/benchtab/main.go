// Benchtab regenerates the paper's evaluation: it runs every experiment in
// DESIGN.md's index (E1–E14) and prints a paper-vs-measured table for each,
// with a shape verdict. This is the program whose output EXPERIMENTS.md
// records.
//
// Usage:
//
//	benchtab            run everything
//	benchtab E3 E7      run selected experiments (an unknown ID is an
//	                    error)
//	benchtab -host BENCH_SIM.json
//	                    render only the host-throughput report, as a
//	                    workload × execution-path table (predecoded,
//	                    reference, instrumented, translated, profiled);
//	                    experiments named after the flags run as well
//	benchtab -profile profiles.json
//	                    render only a simbench -profile artifact, as a
//	                    workload × abort-reason table (why each workload's
//	                    superblocks exit: fallthrough, IFU dispatch, task
//	                    switch, hold, ...); named experiments run as well
//	benchtab -json      emit the tables as JSON instead of text
//	benchtab -json -o tables.json
//	                    write the JSON to a file (atomically: a killed run
//	                    never leaves a truncated document)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"

	"dorado/internal/bench"
	"dorado/internal/obs"
	"dorado/internal/obs/prof"
)

func main() {
	asJSON := flag.Bool("json", false, "emit experiment tables as JSON")
	out := flag.String("o", "", "with -json: write to this file instead of stdout")
	httpAddr := flag.String("http", "", "serve /debug/pprof and /debug/vars on this address while experiments run")
	host := flag.String("host", "", "render this simbench report (e.g. BENCH_SIM.json) as a workload × path table; run only the experiments named")
	profile := flag.String("profile", "", "render this simbench -profile artifact as a workload × abort-reason table; run only the experiments named")
	flag.Parse()
	exps := bench.Experiments()
	want := map[string]bool{}
	for _, id := range flag.Args() {
		if !slices.ContainsFunc(exps, func(e bench.Experiment) bool { return e.ID == id }) {
			fatal(fmt.Errorf("unknown experiment %s", id))
		}
		want[id] = true
	}
	if *host != "" {
		rep, err := bench.ReadHostReportFile(*host)
		if err != nil {
			fatal(err)
		}
		fmt.Println(rep.HostTable())
	}
	if *profile != "" {
		data, err := os.ReadFile(*profile)
		if err != nil {
			fatal(err)
		}
		var rep prof.BenchReport
		if err := json.Unmarshal(data, &rep); err != nil {
			fatal(fmt.Errorf("%s: %v", *profile, err))
		}
		fmt.Println(prof.AbortTable(&rep))
	}
	if (*host != "" || *profile != "") && len(want) == 0 {
		return
	}
	if *httpAddr != "" {
		srv, err := obs.ServeDebug(*httpAddr, nil)
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "benchtab: debug server on http://%s\n", srv.Addr())
	}
	failures := 0
	var tables []bench.TableJSON
	for _, e := range exps {
		if len(want) > 0 && !want[e.ID] {
			continue
		}
		tab := e.Run()
		if *asJSON {
			tables = append(tables, tab.JSON())
		} else {
			fmt.Println(tab)
		}
		if tab.Err != nil || !tab.Pass {
			failures++
		}
	}
	if *asJSON {
		var err error
		if *out != "" {
			err = bench.WriteJSONFile(*out, tables)
		} else {
			err = bench.WriteJSON(os.Stdout, tables)
		}
		if err != nil {
			fatal(err)
		}
	}
	if failures > 0 {
		fatal(fmt.Errorf("%d experiment(s) did not match the paper's shape", failures))
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
	os.Exit(1)
}
