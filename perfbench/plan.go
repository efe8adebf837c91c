package main

import (
	"cmp"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"time"
)

// workload is one traffic mix. Every random choice a run makes comes
// from the seed through plan; the daemons only ever see the generated
// calls.
type workload struct {
	// rate is the open-loop Poisson arrival rate in calls/s. Zero
	// selects the bag-of-tasks sweep: bagPerSecond calls per measured
	// second, all due at the start, one chunk of chunk calls per
	// session, issued through at most window unfinished submissions.
	rate         float64
	bagPerSecond int
	chunk        int
	window       int

	services           []string
	minParam, maxParam int           // parameter size range, log-uniform
	execTime           time.Duration // timer-executed work per task

	// shortSessions draws session lifetimes in [minLife, maxLife);
	// otherwise two sessions stay open for the whole run.
	shortSessions    bool
	minLife, maxLife time.Duration

	killEvery   time.Duration // mean time between server kills, grid-wide; 0: no kills
	restartWait time.Duration // SIGKILL → restart on the same address and disk

	drain time.Duration // how long results may trail the last due call
}

const (
	benchUser = "bench"
	// maxOpenSessions is the client population bound: the box has two
	// cores, and each open session is one more event loop.
	maxOpenSessions  = 2
	warmupPerSession = 4
	// servers is the grid's worker count in every workload.
	servers = 4
)

var workloads = map[string]workload{
	// Calibration (2-core box, this commit): with little CPU steal,
	// sweep sustained 290-350 calls/s, so the bag holds 300 calls per
	// measured second.
	"sweep": {
		bagPerSecond: 300, chunk: 500, window: 64,
		services: []string{"upper"}, minParam: 64, maxParam: 64,
		drain: 60 * time.Second,
	},
	// About a fifth of sweep capacity: latency without saturation.
	"steady": {
		rate:     70,
		services: []string{"upper", "reverse"}, minParam: 64, maxParam: 64 << 10,
		shortSessions: true, minLife: 3 * time.Second, maxLife: 5 * time.Second,
		drain: 15 * time.Second,
	},
	// 40 calls/s of 50 ms tasks keeps four servers about half busy.
	// One kill every 5 s grid-wide hits well under 1% of the calls, so
	// call_p99_ms stays a statistic of the calls that were not hit.
	// Killing each server every 5 s (or 2-3 s) hit about 1-2.5%: p99
	// then sat on the boundary between hit calls (5-17 s) and the rest,
	// and flipped between seeds, while the extra restarts made call_p50
	// swing 1-4 s.
	"churn": {
		rate:     40,
		services: []string{"upper", "reverse"}, minParam: 64, maxParam: 64,
		execTime:  50 * time.Millisecond,
		killEvery: 5 * time.Second, restartWait: 500 * time.Millisecond,
		drain: 30 * time.Second,
	},
}

// callSpec is one generated call.
type callSpec struct {
	due      time.Duration // offset from the start of the measured window
	session  int           // index into plan.sessions
	service  string
	params   []byte
	execTime time.Duration
}

// sessionSpec is one client session. Calls due in [open, close) go to
// it; it stays open after close until its results are in.
type sessionSpec struct {
	id          uint64
	open, close time.Duration
}

// killSpec SIGKILLs one server at an offset from the start of the
// measured window.
type killSpec struct {
	server int
	at     time.Duration
}

// plan is everything a run sends, derived from the seed alone.
type plan struct {
	w        workload
	sessions []sessionSpec
	warmup   []callSpec // submitted during set-up, excluded from metrics
	calls    []callSpec // measured calls, in due order
	kills    []killSpec // sorted by time
}

// newPlan derives a run's sessions, calls and kills from the seed and
// the window length. Sessions, calls and kills draw from independent
// streams, so one choice does not shift another.
func newPlan(w workload, seed uint64, seconds int) plan {
	span := time.Duration(seconds) * time.Second
	p := plan{w: w}
	sessRNG := rand.New(rand.NewPCG(seed, 1))
	callRNG := rand.New(rand.NewPCG(seed, 2))
	killRNG := rand.New(rand.NewPCG(seed, 3))

	newID := func() uint64 {
		for {
			if id := sessRNG.Uint64(); id != 0 {
				return id
			}
		}
	}
	switch {
	case w.shortSessions:
		for at := time.Duration(0); at < span; {
			life := w.minLife + time.Duration(sessRNG.Float64()*float64(w.maxLife-w.minLife))
			p.sessions = append(p.sessions, sessionSpec{id: newID(), open: at, close: at + life})
			at += life
		}
	case w.rate == 0:
		// One session per chunk; the first two open at the start, the
		// others when the sweep gets to them.
		n := (w.bagPerSecond*seconds + w.chunk - 1) / w.chunk
		for i := 0; i < n; i++ {
			open := span
			if i < maxOpenSessions {
				open = 0
			}
			p.sessions = append(p.sessions, sessionSpec{id: newID(), open: open, close: span})
		}
	default:
		for i := 0; i < maxOpenSessions; i++ {
			p.sessions = append(p.sessions, sessionSpec{id: newID(), open: 0, close: span})
		}
	}

	// pos in [0, 1) picks the parameter size, log-uniform over
	// [minParam, maxParam].
	newCall := func(due time.Duration, session int, pos float64) callSpec {
		size := w.minParam
		if w.maxParam > w.minParam {
			lo, hi := math.Log(float64(w.minParam)), math.Log(float64(w.maxParam))
			size = int(math.Exp(lo + pos*(hi-lo)))
		}
		return callSpec{
			due:      due,
			session:  session,
			service:  w.services[callRNG.IntN(len(w.services))],
			params:   payload(callRNG, size),
			execTime: w.execTime,
		}
	}
	// Warm-up calls go to the sessions open at the start.
	for s := range p.sessions {
		if p.sessions[s].open > 0 {
			break
		}
		for i := 0; i < warmupPerSession; i++ {
			p.warmup = append(p.warmup, newCall(0, s, callRNG.Float64()))
		}
	}

	if w.rate == 0 {
		n := w.bagPerSecond * seconds
		for i := 0; i < n; i++ {
			p.calls = append(p.calls, newCall(0, i/w.chunk, callRNG.Float64()))
		}
	} else {
		// A Poisson process conditioned on its count: rate×seconds
		// arrival times drawn uniformly over the window. The count is
		// then the same for every seed and only the timing varies.
		dues := make([]time.Duration, int(w.rate*float64(seconds)))
		for i := range dues {
			dues[i] = time.Duration(callRNG.Int64N(int64(span)))
		}
		slices.Sort(dues)
		// Sizes are stratified: call i gets the quantile
		// (perm[i]+0.5)/n, so every seed sends the same sizes in
		// another order. The bytes a run carries then do not vary with
		// the seed; they set the coordinator's memory, whose job table
		// keeps every call's params and output.
		perm := callRNG.Perm(len(dues))
		s := 0
		for i, at := range dues {
			session := 0
			if w.shortSessions {
				for p.sessions[s].close <= at {
					s++
				}
				session = s
			} else {
				session = callRNG.IntN(len(p.sessions))
			}
			p.calls = append(p.calls, newCall(at, session, (float64(perm[i])+0.5)/float64(len(dues))))
		}
	}

	if w.killEvery > 0 {
		// A Poisson process conditioned on its count, seconds/killEvery
		// kills; each picks a server not killed within the last restart
		// wait (plus a margin), so a kill never lands on a server that
		// is still down.
		gap := w.restartWait + 100*time.Millisecond
		at := make([]time.Duration, int(span/w.killEvery))
		for i := range at {
			at[i] = time.Duration(killRNG.Int64N(int64(span)))
		}
		slices.Sort(at)
		last := make([]time.Duration, servers)
		for i := range last {
			last[i] = -gap
		}
		for _, a := range at {
			first := killRNG.IntN(servers)
			sv := first
			for k := 0; k < servers; k++ {
				c := (first + k) % servers
				if a-last[c] >= gap {
					sv = c
					break
				}
				if last[c] < last[sv] {
					sv = c
				}
			}
			a = max(a, last[sv]+gap)
			last[sv] = a
			p.kills = append(p.kills, killSpec{server: sv, at: a})
		}
		slices.SortFunc(p.kills, func(a, b killSpec) int { return cmp.Compare(a.at, b.at) })
	}
	return p
}

// payload draws size bytes of mixed-case text, so both upper and
// reverse change it.
func payload(r *rand.Rand, size int) []byte {
	const alphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 "
	b := make([]byte, size)
	for i := range b {
		b[i] = alphabet[r.IntN(len(alphabet))]
	}
	return b
}

// expected computes a builtin service's output. The benchmark keeps
// its own copy of the semantics so a daemon bug cannot also corrupt
// the reference.
func expected(service string, params []byte) ([]byte, error) {
	out := make([]byte, len(params))
	switch service {
	case "upper":
		for i, b := range params {
			if 'a' <= b && b <= 'z' {
				b -= 'a' - 'A'
			}
			out[i] = b
		}
	case "reverse":
		for i, b := range params {
			out[len(params)-1-i] = b
		}
	default:
		return nil, fmt.Errorf("no reference for service %q", service)
	}
	return out, nil
}
