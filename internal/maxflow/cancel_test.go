package maxflow

import (
	"context"
	"errors"
	"testing"
)

// A bisector with a done context must stop between solves and surface the
// context's error instead of ErrInfeasible or a bogus horizon.
func TestMinTimeCanceled(t *testing.T) {
	g := New(3)
	e1 := g.AddEdge(0, 1, 0)
	e2 := g.AddEdge(1, 2, 0)
	b := NewTimeBisector(g, 0, 2, 100)
	b.AddRateEdge(e1, 10)
	b.AddFixedEdge(e2, 100)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	b.Ctx = ctx
	if _, err := b.MinTime(); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled MinTime err = %v, want context.Canceled", err)
	}

	// Detaching (or rebinding via Reinit) restores normal solving.
	b.Reinit(g, 0, 2, 100)
	b.AddRateEdge(e1, 10)
	b.AddFixedEdge(e2, 100)
	got, err := b.MinTime()
	if err != nil {
		t.Fatal(err)
	}
	if got <= 0 {
		t.Fatalf("MinTime = %v after Reinit, want positive horizon", got)
	}
}

// Cancellation on a long horizon: the bisector only checks between solves,
// so a context canceled before MinTime stops it at the first check.
func TestMinTimeCanceledMidBisection(t *testing.T) {
	g := New(3)
	e1 := g.AddEdge(0, 1, 0)
	e2 := g.AddEdge(1, 2, 0)
	b := NewTimeBisector(g, 0, 2, 1e12)
	b.AddRateEdge(e1, 1)
	b.AddFixedEdge(e2, 1e12)

	ctx, cancel := context.WithCancel(context.Background())
	b.Ctx = ctx
	cancel()
	if _, err := b.MinTime(); !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-bisection MinTime err = %v, want context.Canceled", err)
	}
}
