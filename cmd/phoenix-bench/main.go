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
	"repro/internal/faultinject"
)

func main() {
	exp := flag.String("exp", "all", "experiment: table1|table2|table3|table4|fig3|fig5|fig6|pws|ablation-partition|ablation-interval|all")
	quick := flag.Bool("quick", true, "shrink the Linpack problem sizes (table4) for a fast run")
	flag.Parse()

	runners := map[string]func() error{
		"table1": func() error { return faultTable(faultinject.CompWD) },
		"table2": func() error { return faultTable(faultinject.CompGSD) },
		"table3": func() error { return faultTable(faultinject.CompES) },
		"table4": func() error {
			t, err := experiments.RunTable4(*quick)
			if err != nil {
				return err
			}
			fmt.Println(t.Render())
			return nil
		},
		"fig3": func() error {
			r, err := experiments.RunFig3()
			if err != nil {
				return err
			}
			fmt.Println(r.Render())
			return nil
		},
		"fig5": func() error {
			r, err := experiments.RunFig5()
			if err != nil {
				return err
			}
			fmt.Println(r.Render())
			return nil
		},
		"fig6": func() error {
			r, err := experiments.RunFig6(nil)
			if err != nil {
				return err
			}
			fmt.Println(r.Render())
			return nil
		},
		"pws": func() error {
			r, err := experiments.RunPWSvsPBS()
			if err != nil {
				return err
			}
			fmt.Println(r.Render())
			return nil
		},
		"ablation-partition": func() error {
			r, err := experiments.RunAblationPartitioning(nil)
			if err != nil {
				return err
			}
			fmt.Println(r.Render())
			return nil
		},
		"ablation-interval": func() error {
			r, err := experiments.RunIntervalSweep(nil)
			if err != nil {
				return err
			}
			fmt.Println(r.Render())
			return nil
		},
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

func faultTable(comp faultinject.Component) error {
	t, err := experiments.RunFaultTable(comp)
	if err != nil {
		return err
	}
	fmt.Println(t.Render())
	return nil
}
