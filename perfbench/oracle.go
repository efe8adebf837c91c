package main

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"time"

	"rpcv/internal/proto"
)

// callRecord is one call's life as the application sees it.
type callRecord struct {
	spec *callSpec
	want []byte
	id   proto.CallID
	t    *tally // the session's counts, guarded by oracle.mu

	due      time.Time // intended send time
	issued   time.Time // generator began the Submit
	returned time.Time // Submit returned
	complete time.Time // OnSubmitComplete: logged durably and acknowledged
	result   time.Time // OnResult with a correct output
}

// tally counts one session's calls.
type tally struct {
	submitted, completed, results int
}

// oracle checks every result the application receives against the
// expected bytes. A wrong, duplicated or unsolicited result is a
// failed run; a call with no result is counted as failed.
type oracle struct {
	mu    sync.Mutex
	calls map[proto.CallID]*callRecord
	errs  []error

	// changed is closed and replaced after every submission
	// completion and result, waking every waiter.
	changed chan struct{}
}

func newOracle() *oracle {
	return &oracle{calls: make(map[proto.CallID]*callRecord), changed: make(chan struct{})}
}

// signalLocked wakes the waiters. Callers hold o.mu.
func (o *oracle) signalLocked() {
	close(o.changed)
	o.changed = make(chan struct{})
}

// waitFor re-checks cond after every change until it holds, ctx ends
// or the deadline passes; it reports whether cond held.
func (o *oracle) waitFor(ctx context.Context, deadline time.Time, cond func() bool) bool {
	tm := time.NewTimer(time.Until(deadline))
	defer tm.Stop()
	for {
		o.mu.Lock()
		ch := o.changed
		o.mu.Unlock()
		if cond() {
			return true
		}
		select {
		case <-ch:
		case <-tm.C:
			return cond()
		case <-ctx.Done():
			return false
		}
	}
}

// expect registers a submitted call. It must run before the call's
// result can arrive, i.e. on the session's loop right after Submit.
func (o *oracle) expect(rec *callRecord) {
	o.mu.Lock()
	o.calls[rec.id] = rec
	rec.t.submitted++
	o.mu.Unlock()
}

// submitted notes a call's submission completing.
func (o *oracle) submitted(id proto.CallID, at time.Time) {
	o.mu.Lock()
	if rec, ok := o.calls[id]; ok && rec.complete.IsZero() {
		rec.complete = at
		rec.t.completed++
		o.signalLocked()
	}
	o.mu.Unlock()
}

// deliver checks one result reaching the application.
func (o *oracle) deliver(res proto.Result, at time.Time) {
	o.mu.Lock()
	defer o.mu.Unlock()
	rec, ok := o.calls[res.Call]
	switch {
	case !ok:
		o.errs = append(o.errs, fmt.Errorf("unsolicited result for %s: never submitted", res.Call))
	case !rec.result.IsZero():
		o.errs = append(o.errs, fmt.Errorf("duplicate result for %s", res.Call))
	case res.Err != "":
		o.errs = append(o.errs, fmt.Errorf("wrong result for %s: service error %q", res.Call, res.Err))
	case !bytes.Equal(res.Output, rec.want):
		o.errs = append(o.errs, fmt.Errorf("wrong result for %s: %d bytes %q, want %d bytes %q",
			res.Call, len(res.Output), clip(res.Output), len(rec.want), clip(rec.want)))
	default:
		rec.result = at
		rec.t.results++
		o.signalLocked()
	}
}

// err returns the first failed check, naming its CallID, and how many
// checks failed in all.
func (o *oracle) err() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if len(o.errs) == 0 {
		return nil
	}
	return fmt.Errorf("%w (%d failed checks)", o.errs[0], len(o.errs))
}

// count reads a tally.
func (o *oracle) count(t *tally) tally {
	o.mu.Lock()
	defer o.mu.Unlock()
	return *t
}

// snapshot copies the records under the lock, for the final tally.
func (o *oracle) snapshot(recs []*callRecord) []callRecord {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]callRecord, len(recs))
	for i, r := range recs {
		out[i] = *r
	}
	return out
}

func clip(b []byte) []byte {
	if len(b) > 16 {
		return b[:16]
	}
	return b
}
