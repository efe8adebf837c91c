package main

import (
	"strings"
	"testing"
	"time"

	"rpcv/internal/proto"
)

// newCheckedCall registers one submitted call with the oracle.
func newCheckedCall(or *oracle, t *tally, seq proto.RPCSeq, service, params string) *callRecord {
	spec := &callSpec{service: service, params: []byte(params)}
	rec := &callRecord{spec: spec, want: mustExpect(spec), t: t,
		id: proto.CallID{User: benchUser, Session: 7, Seq: seq}}
	or.expect(rec)
	return rec
}

func TestOracleCatchesEveryBadResult(t *testing.T) {
	at := time.Now()
	cases := []struct {
		name    string
		deliver func(or *oracle, a, b *callRecord)
		want    string // substring of the error, naming the CallID
	}{
		{"corrupted", func(or *oracle, a, _ *callRecord) {
			or.deliver(proto.Result{Call: a.id, Output: []byte("HELLO WORLX")}, at)
		}, "wrong result for bench/7/1"},
		{"service error", func(or *oracle, _, b *callRecord) {
			or.deliver(proto.Result{Call: b.id, Err: "boom"}, at)
		}, "wrong result for bench/7/2"},
		{"duplicated", func(or *oracle, a, _ *callRecord) {
			or.deliver(proto.Result{Call: a.id, Output: a.want}, at)
			or.deliver(proto.Result{Call: a.id, Output: a.want}, at)
		}, "duplicate result for bench/7/1"},
		{"unsolicited", func(or *oracle, _, _ *callRecord) {
			or.deliver(proto.Result{Call: proto.CallID{User: benchUser, Session: 7, Seq: 99}, Output: []byte("x")}, at)
		}, "unsolicited result for bench/7/99"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			or := newOracle()
			var tl tally
			a := newCheckedCall(or, &tl, 1, "upper", "hello world")
			b := newCheckedCall(or, &tl, 2, "reverse", "abc")
			tc.deliver(or, a, b)
			err := or.err()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one containing %q", err, tc.want)
			}
		})
	}
}

func TestOracleCountsMissingResultsAsFailed(t *testing.T) {
	or := newOracle()
	var tl tally
	recs := []*callRecord{
		newCheckedCall(or, &tl, 1, "upper", "hello world"),
		newCheckedCall(or, &tl, 2, "reverse", "abc"),
	}
	due := time.Now()
	for _, r := range recs {
		r.due, r.issued = due, due
	}
	or.deliver(proto.Result{Call: recs[1].id, Output: []byte("cba")}, due.Add(time.Second))
	if err := or.err(); err != nil {
		t.Fatalf("a correct result failed the check: %v", err)
	}
	u := summarize(or.snapshot(recs))
	if u.attempted != 2 || u.correct != 1 {
		t.Fatalf("attempted %d correct %d, want 2 and 1", u.attempted, u.correct)
	}
	if got := u.metrics()["failed_frac"]; got != 0.5 {
		t.Fatalf("failed_frac = %v, want 0.5", got)
	}
	if got := or.count(&tl); got.submitted != 2 || got.results != 1 {
		t.Fatalf("tally = %+v", got)
	}
}

func TestReferenceServices(t *testing.T) {
	for _, tc := range []struct{ service, in, out string }{
		{"upper", "Hello, grid 42", "HELLO, GRID 42"},
		{"reverse", "abc def", "fed cba"},
		{"reverse", "", ""},
	} {
		got, err := expected(tc.service, []byte(tc.in))
		if err != nil || string(got) != tc.out {
			t.Errorf("%s(%q) = %q, %v; want %q", tc.service, tc.in, got, err, tc.out)
		}
	}
	if _, err := expected("sleep", []byte("1s")); err == nil {
		t.Error("a service without a reference was accepted")
	}
}
