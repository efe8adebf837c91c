package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Daemon flags. Only deployment settings plus the failure detector's
// periods are set; everything else (store engine, event loops,
// scheduling policy, cost model) is left at the shipped default on
// purpose, so a change to a default is measured without editing the
// benchmark.
const (
	heartbeat = time.Second
	timeout   = 5 * time.Second
	coordID   = "coord-0"
)

// proc is one incarnation of a child daemon.
type proc struct {
	cmd  *exec.Cmd
	done chan struct{} // closed once the child has been reaped

	// CPU accounting for the measured window: base is the CPU time
	// already used when the window opened (zero for an incarnation
	// started inside it); final is the total once reaped.
	base  time.Duration
	final time.Duration
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

func (p *proc) alive() bool {
	select {
	case <-p.done:
		return false
	default:
		return true
	}
}

// kill SIGKILLs the child and waits until it is reaped.
func (p *proc) kill() {
	if p.alive() {
		_ = p.cmd.Process.Signal(syscall.SIGKILL) // already exited is fine: done closes either way
	}
	<-p.done
}

// cpu returns user+system CPU time used so far.
func (p *proc) cpu() time.Duration {
	if !p.alive() {
		return p.final
	}
	if d, err := procCPU(p.pid()); err == nil {
		return d
	}
	<-p.done // exited between the two checks
	return p.final
}

// node is a daemon slot: a stable ID, address and disk that survive
// restarts.
type node struct {
	id, addr, admin, disk string
	args                  []string
	cur                   *proc
}

// grid runs one coordinator and its servers as child processes.
type grid struct {
	bin, dir string

	mu      sync.Mutex
	procs   []*proc // every incarnation ever started
	coord   *node
	servers []*node
}

// gridConfig lists the nodes a grid must know before it starts.
type gridConfig struct {
	clients map[string]string // client node ID → reply address
	traced  bool              // give every daemon an -admin endpoint
}

// startGrid spawns the coordinator and then its servers over loopback
// TCP with fresh disk directories under dir, and returns once every
// daemon accepts connections. On error the returned grid, if any,
// still needs close.
func startGrid(ctx context.Context, bin, dir string, ports *portPool, cfg gridConfig) (*grid, error) {
	g := &grid{bin: bin, dir: dir}
	mk := func(id string) (*node, error) {
		n := &node{id: id, addr: ports.next(), disk: filepath.Join(dir, id)}
		if cfg.traced {
			n.admin = ports.next()
		}
		return n, os.MkdirAll(n.disk, 0o755)
	}
	var err error
	if g.coord, err = mk(coordID); err != nil {
		return nil, err
	}
	var dirEntries []string
	for i := 0; i < servers; i++ {
		sv, err := mk(fmt.Sprintf("server-%d", i))
		if err != nil {
			return nil, err
		}
		g.servers = append(g.servers, sv)
		dirEntries = append(dirEntries, sv.id+"="+sv.addr)
	}
	for id, addr := range cfg.clients {
		dirEntries = append(dirEntries, id+"="+addr)
	}
	g.coord.args = []string{"-id", coordID, "-listen", g.coord.addr,
		"-nodes", strings.Join(dirEntries, ","), "-disk", g.coord.disk,
		"-heartbeat", heartbeat.String(), "-timeout", timeout.String()}
	for _, sv := range g.servers {
		sv.args = []string{"-id", sv.id, "-listen", sv.addr,
			"-coordinators", coordID + "=" + g.coord.addr, "-disk", sv.disk,
			"-heartbeat", heartbeat.String(), "-timeout", timeout.String()}
	}
	if cfg.traced {
		for _, n := range append([]*node{g.coord}, g.servers...) {
			n.args = append(n.args, "-admin", n.admin)
		}
	}
	if err := g.spawn(g.coord, "rpcv-coordinator"); err != nil {
		return g, err
	}
	if err := g.waitListening(ctx, g.coord); err != nil {
		return g, err
	}
	// A server heartbeats, and so pulls work, at a fixed phase set by
	// its start time. Starting the servers a heartbeat/servers apart
	// spreads the phases evenly, so the dispatch wait does not depend
	// on how the start times happened to cluster.
	base := time.Now()
	for i, sv := range g.servers {
		wallClock{}.SleepUntil(ctx, base.Add(time.Duration(i)*heartbeat/time.Duration(len(g.servers))))
		if err := ctx.Err(); err != nil {
			return g, err
		}
		if err := g.spawn(sv, "rpcv-server"); err != nil {
			return g, err
		}
		if err := g.waitListening(ctx, sv); err != nil {
			return g, err
		}
	}
	return g, nil
}

func (g *grid) spawn(n *node, binary string) error {
	out, err := os.OpenFile(filepath.Join(g.dir, n.id+".log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer out.Close() // the child holds its own descriptor
	cmd := exec.Command(filepath.Join(g.bin, binary), n.args...)
	// Daemon output goes to a file: the coordinator logs a line per
	// finished job, which would block on an undrained pipe.
	cmd.Stdout, cmd.Stderr = out, out
	// Children die with the benchmark even if it is SIGKILLed, and sit
	// in their own process group so a terminal ^C reaches only us.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL, Setpgid: true}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("start %s: %w", n.id, err)
	}
	p := &proc{cmd: cmd, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // a SIGKILLed daemon reports an error by design
		if st := cmd.ProcessState; st != nil {
			p.final = st.UserTime() + st.SystemTime()
		}
		close(p.done)
	}()
	g.mu.Lock()
	n.cur = p
	g.procs = append(g.procs, p)
	g.mu.Unlock()
	return nil
}

// waitListening polls until daemon n accepts TCP connections.
func (g *grid) waitListening(ctx context.Context, n *node) error {
	for {
		c, err := net.DialTimeout("tcp", n.addr, 100*time.Millisecond)
		if err == nil {
			c.Close()
			return nil
		}
		if !n.cur.alive() {
			return fmt.Errorf("%s exited during start-up; see %s", n.id, filepath.Join(g.dir, n.id+".log"))
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// killServer SIGKILLs server i and reaps it; before, if given, runs
// just before the signal (the traced run's last scrape).
func (g *grid) killServer(i int, before func(*node)) {
	n := g.servers[i]
	if before != nil {
		before(n)
	}
	n.cur.kill()
}

// restartServer starts server i again on the same address and disk.
func (g *grid) restartServer(i int) error {
	return g.spawn(g.servers[i], "rpcv-server")
}

// markWindow starts CPU accounting for the measured window.
func (g *grid) markWindow() {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, p := range g.procs {
		p.base = p.cpu()
	}
}

// cpuSince returns the CPU the coordinator and the servers used since
// markWindow, counting every server incarnation.
func (g *grid) cpuSince() (coord, servers time.Duration) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, p := range g.procs {
		d := p.cpu() - p.base
		if p == g.coord.cur {
			coord += d
		} else {
			servers += d
		}
	}
	return coord, servers
}

// close SIGKILLs and reaps every child. Safe to call more than once.
func (g *grid) close() {
	if g == nil {
		return
	}
	g.mu.Lock()
	procs := append([]*proc(nil), g.procs...)
	g.mu.Unlock()
	for _, p := range procs {
		p.kill()
	}
}

// procCPU reads utime+stime from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields resume after its ')'.
	i := bytes.LastIndexByte(raw, ')')
	if i < 0 {
		return 0, errors.New("malformed stat")
	}
	f := strings.Fields(string(raw[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short stat")
	}
	utime, err1 := strconv.ParseUint(f[11], 10, 64)
	stime, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed stat times")
	}
	const ticksPerSecond = 100 // USER_HZ on Linux
	return time.Duration(utime+stime) * time.Second / ticksPerSecond, nil
}

// hostSteal reads the steal and total jiffies of /proc/stat's cpu
// line: time the hypervisor gave this machine's CPUs to someone else.
func hostSteal() (steal, total uint64, err error) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, errors.New("malformed /proc/stat")
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0, err
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total, nil
}

// procStatusKB reads one "Vm*:  <n> kB" line of /proc/<pid>/status.
func procStatusKB(pid int, key string) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), key+":"); ok {
			return strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		}
	}
	return 0, fmt.Errorf("no %s in status of %d", key, pid)
}

// portPool hands out loopback addresses below the kernel's ephemeral
// range, so a port probed free is not then taken by an outgoing
// connection before the daemon binds it.
type portPool struct {
	mu   sync.Mutex
	last int
	used map[int]bool
}

func newPortPool() *portPool {
	return &portPool{last: 20000 + rand.IntN(10000), used: map[int]bool{}}
}

func (pp *portPool) next() string {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	for {
		pp.last++
		if pp.last > 32000 {
			pp.last = 20000
		}
		if pp.used[pp.last] {
			continue
		}
		addr := "127.0.0.1:" + strconv.Itoa(pp.last)
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			continue
		}
		ln.Close()
		pp.used[pp.last] = true
		return addr
	}
}
