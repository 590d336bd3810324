// Command phoenix-bench regenerates the paper's evaluation: Tables 1-3
// (fault tolerance of WD, GSD and ES), Table 4 (Linpack impact), the
// meta-group succession walk (Figure 3/4), the data-bulletin federation
// behaviour (Figure 5), the monitoring scalability sweep (Figure 6, §5.3),
// the PWS-versus-PBS comparison (§5.4) and the two ablations.
//
// Usage:
//
//	phoenix-bench                 # run everything
//	phoenix-bench -exp table1     # one experiment
//	phoenix-bench -exp table4 -quick=false   # full-size Linpack
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
	"repro/internal/types"
)

func main() {
	exp := flag.String("exp", "all", "experiment: table1|table2|table3|table4|fig3|fig5|fig6|pws|ablation-partition|ablation-interval|all")
	quick := flag.Bool("quick", true, "shrink the Linpack problem sizes (table4) for a fast run")
	flag.Parse()

	runners := map[string]func() error{
		"table1":             func() error { return show(experiments.RunFaultTable(types.SvcWD)) },
		"table2":             func() error { return show(experiments.RunFaultTable(types.SvcGSD)) },
		"table3":             func() error { return show(experiments.RunFaultTable(types.SvcES)) },
		"table4":             func() error { return show(experiments.RunTable4(*quick)) },
		"fig3":               func() error { return show(experiments.RunFig3()) },
		"fig5":               func() error { return show(experiments.RunFig5()) },
		"fig6":               func() error { return show(experiments.RunFig6(nil)) },
		"pws":                func() error { return show(experiments.RunPWSvsPBS()) },
		"ablation-partition": func() error { return show(experiments.RunAblationPartitioning(nil)) },
		"ablation-interval":  func() error { return show(experiments.RunIntervalSweep(nil)) },
	}
	order := []string{"table1", "table2", "table3", "table4", "fig3", "fig5", "fig6", "pws",
		"ablation-partition", "ablation-interval"}

	var selected []string
	if *exp == "all" {
		selected = order
	} else {
		for _, name := range strings.Split(*exp, ",") {
			if _, ok := runners[name]; !ok {
				fmt.Fprintf(os.Stderr, "phoenix-bench: unknown experiment %q (want one of %s)\n",
					name, strings.Join(order, "|"))
				os.Exit(2)
			}
			selected = append(selected, name)
		}
	}
	for _, name := range selected {
		if err := runners[name](); err != nil {
			fmt.Fprintf(os.Stderr, "phoenix-bench: %s: %v\n", name, err)
			os.Exit(1)
		}
	}
}

// show prints an experiment's rendered report, or returns its error.
func show[R interface{ Render() string }](r R, err error) error {
	if err != nil {
		return err
	}
	fmt.Println(r.Render())
	return nil
}
