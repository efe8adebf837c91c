package main

import (
	"context"
	"errors"
	"os"
	"slices"
	"sync"
	"time"
)

// setupReps is how many times a run sets a fresh grid up; setup_s is
// the median, and the last grid carries the measured load.
const setupReps = 5

// runner holds one invocation's fixed inputs.
type runner struct {
	ctx   context.Context
	p     plan
	bin   string // directory holding the built daemons
	work  string // parent of the per-grid temporary directories
	ports *portPool
	clk   clock
}

// phase is one grid's life: set-up, warm-up, the measured window and
// the drain.
type phase struct {
	r      *runner
	traced bool
	dir    string
	g      *grid
	or     *oracle

	addrs []string // reply address of each planned session

	sessMu   sync.Mutex
	sessions []*session // nil until opened, and again once closed
	warm     []*callRecord
	recs     []*callRecord // measured calls, in plan order

	col *collector // traced runs only

	killMu sync.Mutex
	kills  []killEvent

	setup                  time.Duration
	t0                     time.Time
	selfCPUBase            time.Duration
	stealBase, jiffiesBase uint64
}

// killEvent is one SIGKILL the benchmark delivered.
type killEvent struct {
	server string
	at     time.Time
}

// setUp starts a fresh grid and measures spawning the coordinator →
// every daemon accepting connections (the servers start a
// heartbeat/servers apart) → the coordinator acknowledging the first
// warm-up submission. On error the returned phase still needs
// teardown.
func (r *runner) setUp(traced bool) (*phase, error) {
	dir, err := os.MkdirTemp(r.work, "grid-")
	if err != nil {
		return nil, err
	}
	ph := &phase{r: r, traced: traced, dir: dir, or: newOracle()}
	ph.sessions = make([]*session, len(r.p.sessions))
	clients := map[string]string{}
	for _, s := range r.p.sessions {
		addr := r.ports.next()
		ph.addrs = append(ph.addrs, addr)
		clients[clientNode(s.id)] = addr
	}
	for i := range r.p.calls {
		c := &r.p.calls[i]
		ph.recs = append(ph.recs, &callRecord{spec: c, want: mustExpect(c)})
	}

	start := time.Now()
	ph.g, err = startGrid(r.ctx, r.bin, dir, r.ports, gridConfig{clients: clients, traced: traced})
	if err != nil {
		return ph, err
	}
	for i, s := range r.p.sessions {
		if s.open == 0 {
			if _, err := ph.openSession(i); err != nil {
				return ph, err
			}
		}
	}
	for i := range r.p.warmup {
		c := &r.p.warmup[i]
		ph.warm = append(ph.warm, &callRecord{spec: c, want: mustExpect(c)})
	}
	first := ph.warm[0]
	first.due, first.issued = time.Now(), time.Now()
	ph.sessions[first.spec.session].submit(first, ph.or)
	if !ph.or.waitFor(r.ctx, time.Now().Add(30*time.Second), func() bool { return ph.or.count(first.t).completed > 0 }) {
		return ph, errors.New("set-up: the first warm-up submission was never acknowledged")
	}
	ph.setup = time.Since(start)
	return ph, nil
}

func mustExpect(c *callSpec) []byte {
	want, err := expected(c.service, c.params)
	if err != nil {
		panic(err) // workloads only name services with a reference
	}
	return want
}

func (ph *phase) openSession(i int) (*session, error) {
	s, err := openSession(ph.r.p.sessions[i], ph.addrs[i], ph.g.coord.addr, ph.dir, ph.traced, ph.or)
	if err != nil {
		return nil, err
	}
	ph.sessMu.Lock()
	ph.sessions[i] = s
	ph.sessMu.Unlock()
	return s, nil
}

// openSessions lists the sessions open now.
func (ph *phase) openSessions() []*session {
	ph.sessMu.Lock()
	defer ph.sessMu.Unlock()
	var out []*session
	for _, s := range ph.sessions {
		if s != nil {
			out = append(out, s)
		}
	}
	return out
}

// sessionAt returns planned session i if it is open.
func (ph *phase) sessionAt(i int) *session {
	ph.sessMu.Lock()
	defer ph.sessMu.Unlock()
	return ph.sessions[i]
}

// closeSession pulls a traced session's spans, then closes it.
func (ph *phase) closeSession(i int) {
	s := ph.sessionAt(i)
	if s == nil {
		return
	}
	if ph.col != nil {
		ph.col.finishSession(s)
	}
	s.shutdown()
	ph.sessMu.Lock()
	ph.sessions[i] = nil
	ph.sessMu.Unlock()
}

// warmUp submits the rest of the warm-up calls and waits for every
// warm-up result, so the servers have registered and the measured
// window starts on a running grid.
func (ph *phase) warmUp() error {
	for _, rec := range ph.warm[1:] {
		rec.due, rec.issued = time.Now(), time.Now()
		ph.sessions[rec.spec.session].submit(rec, ph.or)
	}
	ok := ph.or.waitFor(ph.r.ctx, time.Now().Add(30*time.Second), func() bool { return ph.outstanding() == 0 })
	if err := ph.or.err(); err != nil {
		return err
	}
	if !ok {
		if err := ph.r.ctx.Err(); err != nil {
			return err
		}
		return errors.New("warm-up: results missing after 30s")
	}
	return nil
}

// outstanding counts submitted calls still without a result, in the
// sessions still open: a closed session's results can no longer arrive.
func (ph *phase) outstanding() int {
	n := 0
	for _, s := range ph.openSessions() {
		t := ph.or.count(&s.t)
		n += t.submitted - t.results
	}
	return n
}

// measure runs the measured window: it starts the kills, issues every
// planned call and waits for the results until the drain deadline.
func (ph *phase) measure() error {
	r, w := ph.r, ph.r.p.w
	if ph.col != nil {
		ph.col.markWindow()
	}
	ph.g.markWindow()
	var err error
	if ph.selfCPUBase, err = procCPU(os.Getpid()); err != nil {
		return err
	}
	if ph.stealBase, ph.jiffiesBase, err = hostSteal(); err != nil {
		return err
	}
	ph.t0 = time.Now().Add(10 * time.Millisecond)

	var wg sync.WaitGroup
	killErr := make(chan error, servers)
	if len(r.p.kills) > 0 {
		for sv := 0; sv < servers; sv++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := ph.killLoop(sv); err != nil {
					killErr <- err
				}
			}()
		}
	}

	var issueErr error
	if w.rate == 0 {
		issueErr = ph.sweep()
	} else {
		openLoop(r.ctx, r.clk, ph.t0, r.p.calls, ph.recs, func(i int) {
			if issueErr != nil {
				return
			}
			s, err := ph.sessionFor(r.p.calls[i].session)
			if err != nil {
				issueErr = err
				return
			}
			s.submit(ph.recs[i], ph.or)
			ph.recs[i].returned = time.Now()
		})
	}
	wg.Wait()
	close(killErr)
	if issueErr != nil {
		return issueErr
	}
	if err := <-killErr; err != nil {
		return err
	}
	deadline := time.Now().Add(w.drain)
	ph.or.waitFor(r.ctx, deadline, func() bool { return ph.outstanding() == 0 })
	if err := r.ctx.Err(); err != nil {
		return err
	}
	return ph.or.err()
}

// sessionFor returns the open session for planned session i, opening
// it if needed. At most maxOpenSessions stay open: the session opened
// two rotations earlier gets until its drain deadline to receive its
// results and is then closed, whatever is still missing.
func (ph *phase) sessionFor(i int) (*session, error) {
	if s := ph.sessionAt(i); s != nil {
		return s, nil
	}
	if old := i - maxOpenSessions; old >= 0 && ph.sessionAt(old) != nil {
		s := ph.sessionAt(old)
		deadline := ph.t0.Add(s.spec.close + ph.r.p.w.drain)
		ph.or.waitFor(ph.r.ctx, deadline, func() bool {
			t := ph.or.count(&s.t)
			return t.results == t.submitted
		})
		ph.closeSession(old)
	}
	return ph.openSession(i)
}

// sweep works through the bag one chunk per session. A session
// issues its chunk back to back, keeping at most window submissions
// unfinished so the client's bounded send queue never overflows; then
// the next session takes the next chunk while this one waits for its
// results, and closes, before the one after opens. Every call is due
// at t0. One session issuing at a time makes the load independent of
// which coordinator loop shard.LoopMap gives each session: with two
// issuing at once, the seed decided whether they shared a loop, and
// throughput with it.
func (ph *phase) sweep() error {
	r := ph.r
	r.clk.SleepUntil(r.ctx, ph.t0)
	chunks := make([][]int, len(r.p.sessions))
	for i, c := range r.p.calls {
		chunks[c.session] = append(chunks[c.session], i)
	}
	for si, chunk := range chunks {
		s := ph.sessionAt(si)
		if s == nil {
			var err error
			if s, err = ph.openSession(si); err != nil {
				return err
			}
		}
		for _, i := range chunk {
			if !ph.or.waitFor(r.ctx, time.Now().Add(r.p.w.drain), func() bool {
				t := ph.or.count(&s.t)
				return t.submitted-t.completed < r.p.w.window
			}) {
				return r.ctx.Err() // nil if the grid stopped acknowledging: the rest count as failed
			}
			rec := ph.recs[i]
			rec.due, rec.issued = ph.t0, time.Now()
			s.submit(rec, ph.or)
			rec.returned = time.Now()
		}
		if prev := si - 1; prev >= 0 {
			if p := ph.sessionAt(prev); p != nil {
				ph.or.waitFor(r.ctx, time.Now().Add(r.p.w.drain), func() bool {
					t := ph.or.count(&p.t)
					return t.results == t.submitted
				})
				ph.closeSession(prev)
			}
		}
	}
	return r.ctx.Err()
}

// killLoop SIGKILLs server sv at its planned times and restarts it on
// the same address and disk after the restart wait.
func (ph *phase) killLoop(sv int) error {
	r := ph.r
	for _, k := range r.p.kills {
		if k.server != sv {
			continue
		}
		r.clk.SleepUntil(r.ctx, ph.t0.Add(k.at))
		if r.ctx.Err() != nil {
			return nil
		}
		var before func(*node)
		if ph.col != nil {
			before = ph.col.finishServer
		}
		n := ph.g.servers[sv]
		ph.killMu.Lock()
		ph.kills = append(ph.kills, killEvent{server: n.id, at: time.Now()})
		ph.killMu.Unlock()
		ph.g.killServer(sv, before)
		r.clk.SleepUntil(r.ctx, time.Now().Add(r.p.w.restartWait))
		if r.ctx.Err() != nil {
			return nil
		}
		if err := ph.g.restartServer(sv); err != nil {
			return err
		}
	}
	return nil
}

// teardown closes every session, kills and reaps every daemon and
// removes the grid's directory. Safe on a partly set-up phase.
func (ph *phase) teardown() {
	if ph == nil {
		return
	}
	if ph.col != nil {
		ph.col.stop()
	}
	for _, s := range ph.openSessions() {
		s.shutdown()
	}
	ph.g.close()
	_ = os.RemoveAll(ph.dir) // best effort: every grid gets a fresh directory anyway
}

// finish tears the phase down and checks the oracle once more: a
// wrong, duplicate or unsolicited result can arrive until every
// session has shut down.
func (ph *phase) finish() error {
	ph.teardown()
	return ph.or.err()
}

// result is one phase's end-to-end outcome.
type result struct {
	attempted, failed int
	metrics           map[string]float64
}

// endToEnd computes the user-visible metrics of a finished phase.
func (ph *phase) endToEnd() (result, error) {
	u := summarize(ph.or.snapshot(ph.recs))
	if u.correct == 0 {
		return result{}, errors.New("no call produced a result")
	}
	coordCPU, serverCPU := ph.g.cpuSince()
	self, err := procCPU(os.Getpid())
	if err != nil {
		return result{}, err
	}
	hwm, err := procStatusKB(ph.g.coord.cur.pid(), "VmHWM")
	if err != nil {
		return result{}, err
	}
	steal, jiffies, err := hostSteal()
	if err != nil {
		return result{}, err
	}
	m := u.metrics()
	m["cpu_ms_per_call"] = ms(coordCPU+serverCPU+self-ph.selfCPUBase) / float64(u.correct)
	m["peak_rss_mb"] = hwm / 1024
	m["host_steal_pct"] = 100 * float64(steal-ph.stealBase) / float64(max(jiffies-ph.jiffiesBase, 1))
	return result{attempted: u.attempted, failed: u.attempted - u.correct, metrics: m}, nil
}

// userView is what the application saw of the measured calls.
type userView struct {
	attempted, correct       int
	callMs, submitMs, lateMs []float64 // each from the call's due time
	delivered                []time.Time
	first                    time.Time // earliest due time
}

// summarize charges every latency from the call's due time, so a
// stalled generator shows in the calls it delayed.
func summarize(recs []callRecord) userView {
	var u userView
	for _, rec := range recs {
		if rec.issued.IsZero() {
			continue // never issued: the run was cut short
		}
		u.attempted++
		u.lateMs = append(u.lateMs, ms(rec.issued.Sub(rec.due)))
		if u.first.IsZero() || rec.due.Before(u.first) {
			u.first = rec.due
		}
		if !rec.complete.IsZero() {
			u.submitMs = append(u.submitMs, ms(rec.complete.Sub(rec.due)))
		}
		if rec.result.IsZero() {
			continue
		}
		u.correct++
		u.callMs = append(u.callMs, ms(rec.result.Sub(rec.due)))
		u.delivered = append(u.delivered, rec.result)
	}
	return u
}

// metrics computes the latency and throughput metrics; the caller has
// checked that some call succeeded.
func (u userView) metrics() map[string]float64 {
	return map[string]float64{
		"calls_per_s":     throughput(u.delivered, u.first),
		"call_p50_ms":     quantile(u.callMs, 0.50),
		"call_p99_ms":     quantile(u.callMs, 0.99),
		"submit_p50_ms":   quantile(u.submitMs, 0.50),
		"submit_p99_ms":   quantile(u.submitMs, 0.99),
		"gen_late_p99_ms": quantile(u.lateMs, 0.99),
		"failed_frac":     float64(u.attempted-u.correct) / float64(u.attempted),
	}
}

// throughput is the delivery rate of the first 90% of the results:
// results delivered by the 90th-percentile delivery time ÷ that time
// − the first due time. Cutting the last 10% keeps stragglers (calls
// caught by a kill) from setting the rate; call_p99_ms reports them.
func throughput(delivered []time.Time, first time.Time) float64 {
	slices.SortFunc(delivered, func(a, b time.Time) int { return a.Compare(b) })
	n := (len(delivered)*9 + 9) / 10 // ceil(0.9 n), at least 1
	return float64(n) / delivered[n-1].Sub(first).Seconds()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
