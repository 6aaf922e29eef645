// Command benchtables regenerates the evaluation tables of the paper:
//
//	benchtables -table 1    # Table 1: SDFG categories × optimal methods
//	benchtables -table 2    # Table 2: CSDFG applications × methods
//
// Absolute times differ from the paper (different machine, Go vs C++, and
// generated stand-in benchmarks — see README's "Generated stand-ins and
// ablations"); the shape to check is
// the ranking: periodic < K-Iter ≪ symbolic execution, with K-Iter always
// reaching 100% optimality.
package main

import (
	"errors"
	"flag"
	"fmt"
	"strings"
	"time"

	"kiter/internal/bench"
	"kiter/internal/csdf"
	"kiter/internal/gen"
	"kiter/internal/kperiodic"
	"kiter/internal/rat"
	"kiter/internal/symbexec"
)

func main() {
	var (
		table     = flag.Int("table", 0, "table number (1 or 2, 0 = both)")
		mimic     = flag.Int("mimic", 25, "MimicDSP graph count (paper: 100)")
		lghsdf    = flag.Int("lghsdf", 25, "LgHSDF graph count (paper: 100)")
		lgtrans   = flag.Int("lgtransient", 25, "LgTransient graph count (paper: 100)")
		seed      = flag.Int64("seed", 1, "generator seed")
		symBudget = flag.Int64("symbolic-budget", 20_000_000, "symbolic execution event budget")
		expNodes  = flag.Int64("expansion-nodes", 2_000_000, "expansion node budget")
		bounded   = flag.Bool("bounded", true, "include the fixed-buffer-size section of Table 2")
	)
	flag.Parse()
	lim := bench.Limits{SymbolicMaxEvents: *symBudget, ExpansionMaxNodes: *expNodes}
	if *table == 0 || *table == 1 {
		table1(*mimic, *lghsdf, *lgtrans, *seed, lim)
	}
	if *table == 0 || *table == 2 {
		table2(lim, *bounded)
	}
}

func table1(mimic, lghsdf, lgtrans int, seed int64, lim bench.Limits) {
	fmt.Println("Table 1: average computation time of optimal throughput evaluation methods (SDFG)")
	fmt.Printf("%-12s %7s %14s %14s %22s %12s %12s %12s\n",
		"Category", "Graphs", "Tasks m/a/M", "Chans m/a/M", "Σq min/avg/max",
		"K-Iter", "expansion", "symbolic")
	for _, suite := range bench.Table1Suites(mimic, lghsdf, lgtrans, seed) {
		st := bench.Stats(suite.Graphs)
		ki := bench.Summarize(suite.Graphs, bench.MethodKIter, lim, nil)
		ex := bench.Summarize(suite.Graphs, bench.MethodExpansion, lim, nil)
		sy := bench.Summarize(suite.Graphs, bench.MethodSymbolic, lim, nil)
		fmt.Printf("%-12s %7d %14s %14s %22s %12s %12s %12s\n",
			suite.Name, st.Graphs,
			fmt.Sprintf("%d/%d/%d", st.TaskMin, st.TaskAvg, st.TaskMax),
			fmt.Sprintf("%d/%d/%d", st.ChanMin, st.ChanAvg, st.ChanMax),
			fmt.Sprintf("%s/%s/%s", st.SumQMin, st.SumQAvg, st.SumQMax),
			meanOrSkip(ki), meanOrSkip(ex), meanOrSkip(sy))
	}
	fmt.Println()
}

func meanOrSkip(s bench.MethodSummary) string {
	switch {
	case s.Ran == 0 && s.Skipped > 0:
		return "skipped"
	case s.Ran == 0:
		return "-"
	case s.Skipped > 0:
		return fmt.Sprintf("%s(*%d)", fmtDur(s.Mean), s.Skipped)
	default:
		return fmtDur(s.Mean)
	}
}

func fmtDur(d time.Duration) string {
	switch {
	case d < time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
	case d < time.Second:
		return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%.1fs", d.Seconds())
	}
}

func table2(lim bench.Limits, bounded bool) {
	fmt.Println("Table 2: periodic [4] vs K-Iter vs symbolic execution [16] (CSDFG)")
	fmt.Printf("%-22s %6s %8s %14s | %18s | %18s | %18s\n",
		"Application", "Tasks", "Buffers", "Σq", "periodic", "K-Iter", "symbolic")
	sections := []struct {
		title   string
		bounded bool
	}{{"no buffer size", false}}
	if bounded {
		sections = append(sections, struct {
			title   string
			bounded bool
		}{"fixed buffer size", true})
	}
	specs := append(gen.IndustrialSpecs(), gen.SyntheticSpecs()...)
	for _, sec := range sections {
		fmt.Printf("--- %s ---\n", sec.title)
		for _, spec := range specs {
			if !sec.bounded && strings.HasPrefix(spec.Name, "graph") {
				continue // paper lists the synthetic graphs once, bounded
			}
			var g *csdf.Graph
			var err error
			if sec.bounded {
				g, err = gen.IndustrialBounded(spec)
			} else {
				g, err = gen.Industrial(spec)
			}
			if err != nil {
				fmt.Printf("%-22s generation failed: %v\n", spec.Name, err)
				continue
			}
			printT2Row(spec.Name, g, lim)
		}
	}
	fmt.Println()
}

func printT2Row(name string, g *csdf.Graph, lim bench.Limits) {
	sq := "-"
	if s, err := g.SumRepetition(); err == nil {
		sq = s.String()
	}
	// K-Iter supplies the reference optimum.
	ki := bench.Run(g, bench.MethodKIter, lim)
	var ref rat.Rat
	if ki.Err == nil {
		ref = ki.Period
	}
	pe := bench.Run(g, bench.MethodPeriodic, lim)
	sy := bench.Run(g, bench.MethodSymbolic, lim)
	fmt.Printf("%-22s %6d %8d %14s | %18s | %18s | %18s\n",
		name, g.NumTasks(), g.NumBuffers(), sq,
		cellWithOpt(pe, ref), cellWithOpt(ki, ref), cellWithOpt(sy, ref))
}

// cellWithOpt formats "optimality% time" like the paper's Table 2.
func cellWithOpt(out bench.Outcome, ref rat.Rat) string {
	if out.Err != nil {
		var tooLarge *kperiodic.ErrTooLarge
		switch {
		case out.Err == symbexec.ErrBudget, errors.As(out.Err, &tooLarge):
			return "budget"
		case isInfeasible(out.Err):
			return "N/S " + fmtDur(out.Elapsed)
		default:
			return "err"
		}
	}
	opt := "??%"
	if ref.Sign() > 0 && out.Period.Sign() > 0 {
		opt = fmt.Sprintf("%.0f%%", 100*ref.Div(out.Period).Float())
	}
	return fmt.Sprintf("%s %s", opt, fmtDur(out.Elapsed))
}

func isInfeasible(err error) bool {
	if _, ok := err.(*kperiodic.ErrInfeasibleK); ok {
		return true
	}
	if _, ok := err.(*kperiodic.DeadlockError); ok {
		return true
	}
	return err == symbexec.ErrDeadlock
}
