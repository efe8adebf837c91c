package main

import (
	"context"
	"reflect"
	"slices"
	"testing"
	"time"
)

func TestPlanIsAFunctionOfTheSeed(t *testing.T) {
	for name, w := range workloads {
		a, b := newPlan(w, 42, 10), newPlan(w, 42, 10)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two plans from seed 42 differ", name)
		}
		c := newPlan(w, 43, 10)
		if reflect.DeepEqual(a.sessions, c.sessions) || reflect.DeepEqual(a.calls, c.calls) {
			t.Errorf("%s: seeds 42 and 43 gave the same sessions or calls", name)
		}
		if w.killEvery > 0 && (len(a.kills) == 0 || reflect.DeepEqual(a.kills, c.kills)) {
			t.Errorf("%s: kills %v vs %v", name, a.kills, c.kills)
		}
		if len(a.calls) == 0 || len(a.warmup) == 0 {
			t.Errorf("%s: %d calls, %d warm-up calls", name, len(a.calls), len(a.warmup))
		}
	}
}

func TestPlanShape(t *testing.T) {
	p := newPlan(workloads["steady"], 5, 20)
	if want := int(workloads["steady"].rate * 20); len(p.calls) != want {
		t.Fatalf("%d calls, want %d", len(p.calls), want)
	}
	for i, c := range p.calls {
		s := p.sessions[c.session]
		if c.due < s.open || c.due >= s.close {
			t.Fatalf("call %d due %v outside its session [%v, %v)", i, c.due, s.open, s.close)
		}
		if i > 0 && c.due < p.calls[i-1].due {
			t.Fatalf("calls out of due order at %d", i)
		}
		if n := len(c.params); n < 64 || n > 64<<10 {
			t.Fatalf("call %d has %d-byte params", i, n)
		}
	}
	// Every seed sends the same sizes, in another order.
	sizes := func(p plan) []int {
		var out []int
		for _, c := range p.calls {
			out = append(out, len(c.params))
		}
		return out
	}
	a, b := sizes(p), sizes(newPlan(workloads["steady"], 6, 20))
	if slices.Equal(a, b) {
		t.Error("seeds 5 and 6 sent the sizes in the same order")
	}
	slices.Sort(a)
	slices.Sort(b)
	if !slices.Equal(a, b) {
		t.Error("seeds 5 and 6 sent different sizes")
	}
	k := newPlan(workloads["churn"], 5, 20).kills
	last := map[int]time.Duration{}
	for _, kill := range k {
		if prev, ok := last[kill.server]; ok && kill.at-prev < workloads["churn"].restartWait {
			t.Fatalf("server %d killed again %v after a kill, before its restart", kill.server, kill.at-prev)
		}
		last[kill.server] = kill.at
	}
}

// fakeClock advances only when the generator sleeps or a test moves it.
type fakeClock struct{ now time.Time }

func (f *fakeClock) Now() time.Time { return f.now }

func (f *fakeClock) SleepUntil(_ context.Context, t time.Time) {
	if t.After(f.now) {
		f.now = t
	}
}

// A submit that stalls must not push back the calls behind it: they
// are issued late, and their lateness and latency count from when they
// were due.
func TestOpenLoopChargesStallsFromDueTime(t *testing.T) {
	start := time.Unix(1000, 0)
	clk := &fakeClock{now: start}
	var calls []callSpec
	for i := 0; i < 5; i++ {
		calls = append(calls, callSpec{due: time.Duration(i) * 10 * time.Millisecond})
	}
	recs := make([]*callRecord, len(calls))
	for i := range recs {
		recs[i] = &callRecord{spec: &calls[i]}
	}
	openLoop(context.Background(), clk, start, calls, recs, func(i int) {
		if i == 1 {
			clk.now = clk.now.Add(100 * time.Millisecond) // Submit stalls
		}
		recs[i].complete = clk.now
		recs[i].result = clk.now // the result arrives as the submit returns
	})
	wantLate := []time.Duration{0, 0, 90, 80, 70}
	for i, rec := range recs {
		if got := rec.issued.Sub(rec.due); got != wantLate[i]*time.Millisecond {
			t.Errorf("call %d issued %v late, want %v", i, got, wantLate[i]*time.Millisecond)
		}
		if want := start.Add(calls[i].due); !rec.due.Equal(want) {
			t.Errorf("call %d due %v, want %v: the stall moved the schedule", i, rec.due, want)
		}
	}
	snap := make([]callRecord, len(recs))
	for i, r := range recs {
		snap[i] = *r
	}
	m := summarize(snap).metrics()
	// Call 1 itself waited 100 ms inside Submit; calls 2-4 waited in
	// the generator. Latency from due: 0, 100, 90, 80, 70 ms.
	if got := m["call_p50_ms"]; got != 80 {
		t.Errorf("call_p50_ms = %v, want 80", got)
	}
	if got := m["gen_late_p99_ms"]; got < 89 || got > 90 {
		t.Errorf("gen_late_p99_ms = %v, want about 90", got)
	}
	if got := m["submit_p50_ms"]; got != 80 {
		t.Errorf("submit_p50_ms = %v, want 80", got)
	}
}

func TestOpenLoopStopsWhenCancelled(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	calls := make([]callSpec, 10)
	recs := make([]*callRecord, len(calls))
	for i := range recs {
		recs[i] = &callRecord{spec: &calls[i]}
	}
	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	openLoop(ctx, clk, clk.now, calls, recs, func(i int) {
		n++
		if i == 2 {
			cancel()
		}
	})
	if n != 3 {
		t.Fatalf("submitted %d calls after cancelling at the third, want 3", n)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, tc := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.99, 4.96}, {1, 5}} {
		if got := quantile(xs, tc.q); got < tc.want-1e-9 || got > tc.want+1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if xs[0] != 5 {
		t.Error("quantile sorted its input in place")
	}
}
