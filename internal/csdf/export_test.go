package csdf

// RepetitionInt runs the int64 repetition walk alone on a validated g and
// reports whether it finished in int64; RepetitionVector falls back to
// the rat.Rat walk where it did not.
func RepetitionInt(g *Graph) (q []int64, ok bool, err error) {
	n := g.NumTasks()
	q = make([]int64, n)
	ok, err = g.repetitionInt(q, make([]int64, 2*n+1+2*g.NumBuffers()))
	return q, ok, err
}
