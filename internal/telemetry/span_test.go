package telemetry

import (
	"context"
	"sync"
	"testing"
	"time"
)

func TestSpanTreeThroughContext(t *testing.T) {
	root := NewTrace("analyze")
	ctx := ContextWithSpan(context.Background(), root)
	if FromContext(ctx) != root {
		t.Fatal("FromContext lost the root")
	}
	cctx, child := StartSpan(ctx, "solve")
	if child == nil || FromContext(cctx) != child {
		t.Fatal("StartSpan did not activate the child")
	}
	_, grand := StartSpan(cctx, "howard")
	grand.AddInt("iterations", 3)
	grand.AddInt("iterations", 4)
	grand.SetString("method", "kiter")
	grand.End()
	child.End()
	root.Record("queue.wait", time.Now().Add(-time.Millisecond), time.Millisecond)
	root.End()

	n := root.Snapshot()
	if n.Name != "analyze" || len(n.Children) != 2 {
		t.Fatalf("unexpected tree: %+v", n)
	}
	solve := n.Children[0]
	if solve.Name != "solve" || len(solve.Children) != 1 {
		t.Fatalf("unexpected solve node: %+v", solve)
	}
	howard := solve.Children[0]
	if howard.Attrs["iterations"] != int64(7) {
		t.Errorf("AddInt accumulation = %v, want 7", howard.Attrs["iterations"])
	}
	if howard.Attrs["method"] != "kiter" {
		t.Errorf("SetString = %v", howard.Attrs["method"])
	}
	if n.Children[1].Name != "queue.wait" || n.Children[1].DurMS <= 0 {
		t.Errorf("Record child wrong: %+v", n.Children[1])
	}
	// Child phases must fit inside the root's wall time.
	if solve.DurMS > n.DurMS {
		t.Errorf("child duration %g exceeds root %g", solve.DurMS, n.DurMS)
	}
}

func TestSpanNoopWithoutTrace(t *testing.T) {
	ctx := context.Background()
	out, s := StartSpan(ctx, "x")
	if s != nil || out != ctx {
		t.Fatal("StartSpan must pass through when tracing is off")
	}
	s.End()
	s.SetInt("k", 1)
	s.AddInt("k", 1)
	s.Record("r", time.Now(), 0)
	if s.Snapshot() != nil {
		t.Error("nil span snapshot must be nil")
	}
	if ContextWithSpan(ctx, nil) != ctx {
		t.Error("ContextWithSpan(nil) must return ctx unchanged")
	}
}

func TestSpanConcurrentChildren(t *testing.T) {
	root := NewTrace("race")
	ctx := ContextWithSpan(context.Background(), root)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, s := StartSpan(ctx, "contestant")
			s.AddInt("n", 1)
			s.End()
		}()
	}
	wg.Wait()
	root.End()
	if got := len(root.Snapshot().Children); got != 16 {
		t.Fatalf("children = %d, want 16", got)
	}
}

func TestSnapshotOfUnendedSpan(t *testing.T) {
	s := NewTrace("open")
	time.Sleep(time.Millisecond)
	if n := s.Snapshot(); n.DurMS <= 0 {
		t.Error("unended span must report elapsed time so far")
	}
}
