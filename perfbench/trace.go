package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"rpcv/internal/obs"
)

// pullEvery is how often the traced run pulls /tracez and /metrics.
// The busiest ring, the coordinator's, records about three spans per
// call: at sweep rates (under 400 calls/s) its 4096 spans last over
// three seconds. Each pull serialises a whole ring, so pulling more
// often than needed costs the saturated sweep throughput.
const pullEvery = time.Second

// series is one scrape source's counter readings at the start of the
// measured window and at the last pull. Each daemon incarnation and
// each client session is its own source: a restarted server counts
// from zero again.
type series struct {
	first, last metricSet
}

// collector gathers the traced run's spans and metrics from outside
// the daemons: their /tracez and /metrics endpoints, and the client
// sessions' in-process Observers.
type collector struct {
	ph   *phase
	http *http.Client

	mu         sync.Mutex
	spans      map[spanKey]obs.Span
	sources    map[any]*series // *proc or *session
	mailboxMax float64
	pullErrs   int

	stopOnce sync.Once
	quit     chan struct{}
	done     chan struct{}
}

type spanKey struct {
	node, stage, call, detail string
	at                        int64
}

func newCollector(ph *phase) *collector {
	c := &collector{
		ph:      ph,
		http:    &http.Client{Timeout: 2 * time.Second},
		spans:   map[spanKey]obs.Span{},
		sources: map[any]*series{},
		quit:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	go c.loop()
	return c
}

func (c *collector) loop() {
	defer close(c.done)
	t := time.NewTicker(pullEvery)
	defer t.Stop()
	for {
		select {
		case <-c.quit:
			return
		case <-t.C:
			c.pullAll()
		}
	}
}

// stop ends the periodic pulls and takes a final one. Idempotent.
func (c *collector) stop() {
	c.stopOnce.Do(func() {
		close(c.quit)
		<-c.done
		c.pullAll()
	})
}

// markWindow pulls everything and takes those readings as the start
// of the measured window.
func (c *collector) markWindow() {
	c.pullAll()
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, s := range c.sources {
		s.first = s.last
	}
}

// finishServer is the kill hook: the incarnation's last pull, so the
// spans and counts it recorded are not lost with it.
func (c *collector) finishServer(n *node) { c.pullNode(n) }

// finishSession pulls a session for the last time before it closes.
func (c *collector) finishSession(s *session) { c.pullSession(s) }

func (c *collector) pullAll() {
	c.pullNode(c.ph.g.coord)
	for _, n := range c.ph.g.servers {
		c.pullNode(n)
	}
	for _, s := range c.ph.openSessions() {
		c.pullSession(s)
	}
}

func (c *collector) pullNode(n *node) {
	c.ph.g.mu.Lock()
	p := n.cur
	c.ph.g.mu.Unlock()
	if p == nil || !p.alive() {
		return
	}
	var spans []obs.Span
	err := c.getJSON("http://"+n.admin+"/tracez", &spans)
	var readings metricSet
	if err == nil {
		var raw []byte
		if raw, err = c.get("http://" + n.admin + "/metrics"); err == nil {
			readings = parseMetrics(raw)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil {
		c.pullErrs++ // a restarting server not listening yet, typically
		return
	}
	c.addSpans(spans)
	c.note(p, readings)
	if n == c.ph.g.coord {
		for k, v := range readings {
			if strings.HasPrefix(k, "rpcv_loop_mailbox_depth{") && v > c.mailboxMax {
				c.mailboxMax = v
			}
		}
	}
}

func (c *collector) pullSession(s *session) {
	var buf bytes.Buffer
	_ = s.ob.Registry().WritePrometheus(&buf) // a bytes.Buffer never fails
	readings := parseMetrics(buf.Bytes())
	spans := s.ob.Tracer().Dump()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.addSpans(spans)
	c.note(s, readings)
}

// note records a reading for a source. Callers hold c.mu.
func (c *collector) note(src any, readings metricSet) {
	s := c.sources[src]
	if s == nil {
		s = &series{}
		c.sources[src] = s
	}
	s.last = readings
}

func (c *collector) addSpans(spans []obs.Span) {
	for _, sp := range spans {
		c.spans[spanKey{string(sp.Node), string(sp.Stage), sp.Call.String(), sp.Detail, sp.At.UnixNano()}] = sp
	}
}

func (c *collector) get(url string) ([]byte, error) {
	resp, err := c.http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s", url, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

func (c *collector) getJSON(url string, v any) error {
	raw, err := c.get(url)
	if err != nil {
		return err
	}
	return json.Unmarshal(raw, v)
}

// delta sums a counter's growth over the window across the sources
// accept selects.
func (c *collector) delta(name string, accept func(src any) bool) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	total := 0.0
	for src, s := range c.sources {
		if accept(src) {
			total += s.last.sum(name) - s.first.sum(name)
		}
	}
	return total
}

// metricSet maps a Prometheus series ("name{labels}") to its value.
type metricSet map[string]float64

func parseMetrics(raw []byte) metricSet {
	set := metricSet{}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			set[line[:i]] = v
		}
	}
	return set
}

// sum adds every series of the named metric, whatever its labels,
// skipping summary quantiles.
func (set metricSet) sum(name string) float64 {
	total := 0.0
	for k, v := range set {
		base, labels, _ := strings.Cut(k, "{")
		if base == name && !strings.Contains(labels, "quantile=") {
			total += v
		}
	}
	return total
}

// quantile returns a histogram summary's quantile series (the largest
// across label sets other than the quantile) and whether one exists.
func (set metricSet) quantile(name, q string) (float64, bool) {
	best, found := 0.0, false
	for k, v := range set {
		base, labels, _ := strings.Cut(k, "{")
		if base == name && strings.Contains(labels, `quantile="`+q+`"`) && (!found || v > best) {
			best, found = v, true
		}
	}
	return best, found
}

// has reports whether any series of the named metric exists.
func (set metricSet) has(name string) bool {
	for k := range set {
		if base, _, _ := strings.Cut(k, "{"); base == name {
			return true
		}
	}
	return false
}
