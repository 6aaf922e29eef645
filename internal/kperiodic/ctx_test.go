package kperiodic_test

import (
	"context"
	"errors"
	"testing"

	"kiter/internal/csdf"
	"kiter/internal/gen"
	"kiter/internal/kperiodic"
)

func TestKIterCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := kperiodic.KIterCtx(ctx, gen.Figure2(), kperiodic.Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil && res.Evaluation != nil {
		t.Fatal("cancelled run produced an evaluation")
	}
}

func TestEvaluateKCtxCancelled(t *testing.T) {
	f, err := csdf.NewFacts(gen.Figure2())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := kperiodic.Evaluate1Facts(ctx, f, kperiodic.Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestScheduleKCtxCancelled(t *testing.T) {
	f, err := csdf.NewFacts(gen.Figure2())
	if err != nil {
		t.Fatal(err)
	}
	K := make([]int64, f.Graph().NumTasks())
	for i := range K {
		K[i] = 1
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := kperiodic.ScheduleKFacts(ctx, f, K, kperiodic.Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// The background-context wrappers must behave exactly as before.
func TestKIterCtxMatchesKIter(t *testing.T) {
	want, err := kperiodic.KIter(gen.Figure2(), kperiodic.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := kperiodic.KIterCtx(context.Background(), gen.Figure2(), kperiodic.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want.Period.Cmp(got.Period) != 0 || want.Iterations != got.Iterations {
		t.Fatalf("KIterCtx diverged: %v vs %v", got.Evaluation, want.Evaluation)
	}
}
