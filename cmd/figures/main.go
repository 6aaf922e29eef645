// Command figures regenerates the paper's figures (1–5) on the terminal:
// the Figure 1 buffer and its precedence example, the Figure 2 running
// example with its repetition vector, the Figure 3 ASAP schedule, the
// Figure 4 K-periodic schedule, and the Figure 5 bi-valued graph with its
// critical circuit. README's "Generated stand-ins and ablations" lists the
// Figure 2 anchors these reproduce.
package main

import (
	"flag"
	"fmt"
	"os"

	"kiter"
	"kiter/internal/csdf"
	"kiter/internal/gen"
	"kiter/internal/kperiodic"
)

func main() {
	fig := flag.Int("fig", 0, "figure number 1..5 (0 = all)")
	width := flag.Int("width", 110, "Gantt width in characters")
	flag.Parse()
	if err := run(*fig, *width); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}

func run(fig, width int) error {
	funcs := map[int]func(int) error{1: figure1, 2: figure2, 3: figure3, 4: figure4, 5: figure5}
	if fig != 0 {
		f, ok := funcs[fig]
		if !ok {
			return fmt.Errorf("unknown figure %d", fig)
		}
		return f(width)
	}
	for i := 1; i <= 5; i++ {
		if err := funcs[i](width); err != nil {
			return err
		}
		fmt.Println()
	}
	return nil
}

func figure1(int) error {
	fmt.Println("=== Figure 1: a simple buffer b between tasks t and t' ===")
	g, bid := gen.Figure1()
	b := g.Buffer(bid)
	fmt.Printf("in_b = %v  out_b = %v  M0 = %d  (i_b = %d, o_b = %d)\n",
		b.In, b.Out, b.Initial, b.TotalIn(), b.TotalOut())
	ia := csdf.CumulativeIn(b, 1, 2)
	oa := csdf.CumulativeOut(b, 2, 1)
	fmt.Printf("precedence example: M0 + Ia⟨t1,2⟩ − Oa⟨t'2,1⟩ = %d + %d − %d = %d ≥ 0 ✓\n",
		b.Initial, ia, oa, b.Initial+ia-oa)
	return nil
}

func figure2(int) error {
	fmt.Println("=== Figure 2: the running example CSDFG ===")
	g := gen.Figure2()
	if err := g.WriteDOT(os.Stdout); err != nil {
		return err
	}
	q, err := g.RepetitionVector()
	if err != nil {
		return err
	}
	fmt.Printf("repetition vector q = %v (Σq = %d)\n", q, sum(q))
	return nil
}

func figure3(width int) error {
	fmt.Println("=== Figure 3: as-soon-as-possible (self-timed) schedule ===")
	g := gen.Figure2()
	trace, dead, err := kiter.Simulate(g, 26)
	if err != nil {
		return err
	}
	fmt.Print(kiter.GanttFromTrace(g, trace, "ASAP schedule, first 26 time units").Render(width))
	if dead {
		fmt.Println("(execution deadlocks)")
	}
	return nil
}

func figure4(width int) error {
	fmt.Println("=== Figure 4: optimal K-periodic schedule ===")
	g := gen.Figure2()
	res, err := kiter.Throughput(g)
	if err != nil {
		return err
	}
	s, err := kiter.BuildSchedule(g, res.K, kiter.Options{})
	if err != nil {
		return err
	}
	title := fmt.Sprintf("K-periodic schedule, K = %v, Ω = %s (1-periodic reaches only Ω = 18)", res.K, res.Period)
	fmt.Print(kiter.GanttFromSchedule(g, s, 2, title).Render(width))
	for t := 0; t < g.NumTasks(); t++ {
		fmt.Printf("  µ(%s) = %s\n", g.Task(csdf.TaskID(t)).Name, s.Mu[t])
	}
	return nil
}

func figure5(int) error {
	fmt.Println("=== Figure 5: bi-valued graph for K = [1,1,1,1] ===")
	g := gen.Figure2()
	K := []int64{1, 1, 1, 1}
	// Match the figure: buffer-induced arcs only (the figure omits the
	// sequential-phase arcs of tasks).
	arcs, err := kperiodic.BivaluedGraph(g, K, kiter.Options{AutoConcurrency: true})
	if err != nil {
		return err
	}
	for _, a := range arcs {
		fmt.Printf("  %s%d -> %s%d  (L=%d, H=%s)\n",
			g.Task(a.From.Task).Name, a.From.Phase,
			g.Task(a.To.Task).Name, a.To.Phase, a.L, a.H)
	}
	ev, err := kiter.ThroughputK(g, K, kiter.Options{})
	if err != nil {
		return err
	}
	fmt.Printf("maximum cost-to-time ratio (with sequential phases): Ω_G̃ = %s\n",
		ev.Period.Mul(kiter.IntRat(1)))
	fmt.Printf("critical circuit tasks: %v (the paper's circuit {A1, D1, C1})\n", ev.CriticalTasks)
	return nil
}

func sum(v []int64) int64 {
	var s int64
	for _, x := range v {
		s += x
	}
	return s
}
