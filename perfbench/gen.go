package main

import (
	"context"
	"time"
)

// clock is the generator's time source; tests substitute a fake.
type clock interface {
	Now() time.Time
	// SleepUntil returns at t or when ctx ends, whichever is first.
	SleepUntil(ctx context.Context, t time.Time)
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

func (wallClock) SleepUntil(ctx context.Context, t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	tm := time.NewTimer(d)
	defer tm.Stop()
	select {
	case <-tm.C:
	case <-ctx.Done():
	}
}

// openLoop issues calls at their due times, start + calls[i].due,
// never waiting for earlier calls to finish. A submit that stalls
// delays the calls behind it; their issue time is recorded against
// their due time, so the stall is charged to them rather than hidden
// (no coordinated omission). It stops early when ctx ends.
func openLoop(ctx context.Context, clk clock, start time.Time, calls []callSpec, recs []*callRecord, submit func(i int)) {
	for i := range calls {
		due := start.Add(calls[i].due)
		clk.SleepUntil(ctx, due)
		if ctx.Err() != nil {
			return
		}
		recs[i].due = due
		recs[i].issued = clk.Now()
		submit(i)
	}
}
