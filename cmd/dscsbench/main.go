// Command dscsbench regenerates the paper's tables and figures.
//
// Usage:
//
//	dscsbench -list
//	dscsbench -run fig9
//	dscsbench -run all -seed 42
//	dscsbench -run fig13 -series
package main

import (
	"flag"
	"fmt"
	"os"

	"dscs"
)

func main() {
	var (
		runID  = flag.String("run", "", "experiment id to run (e.g. fig9), or 'all'")
		list   = flag.Bool("list", false, "list available experiments")
		seed   = flag.Uint64("seed", 42, "random seed for the environment")
		series = flag.Bool("series", false, "also print time series points")
	)
	flag.Parse()

	if *list || *runID == "" {
		fmt.Println("Available experiments:")
		for _, s := range dscs.Experiments() {
			fmt.Printf("  %-8s %s\n", s.ID, s.Title)
		}
		if *runID == "" && !*list {
			fmt.Println("\nUse -run <id> or -run all.")
		}
		return
	}

	env, err := dscs.NewEnvironment(*seed)
	if err != nil {
		fail(err)
	}

	ids := []string{*runID}
	if *runID == "all" {
		ids = ids[:0]
		for _, s := range dscs.Experiments() {
			ids = append(ids, s.ID)
		}
	}
	for _, id := range ids {
		res, err := dscs.RunExperiment(id, env)
		if err != nil {
			fail(err)
		}
		fmt.Println(res.String())
		if *series {
			for _, s := range res.Series {
				fmt.Printf("series %s (%d points)\n", s.Name, len(s.Points))
				for _, p := range s.Points {
					fmt.Printf("  %10.3fs  %.3f\n", p.At.Seconds(), p.Value)
				}
			}
		}
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "dscsbench:", err)
	os.Exit(1)
}
