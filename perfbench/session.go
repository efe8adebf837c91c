package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"rpcv/internal/client"
	"rpcv/internal/msglog"
	"rpcv/internal/obs"
	"rpcv/internal/proto"
	"rpcv/internal/rt"
)

// session hosts one client session in this process, configured as
// rpcv-client configures it: non-blocking pessimistic logging on the
// default store over a real -disk directory, the default poll period
// and suspicion timeout.
type session struct {
	spec sessionSpec
	node string
	cli  *client.Client
	rtm  *rt.Runtime
	ob   *obs.Observer // nil unless traced
	t    tally         // guarded by the oracle's lock
}

func clientNode(id uint64) string { return fmt.Sprintf("client-%s-%d", benchUser, id) }

// openSession starts a session that reports into or.
func openSession(spec sessionSpec, addr, coordAddr, dir string, traced bool, or *oracle) (*session, error) {
	s := &session{spec: spec, node: clientNode(spec.id)}
	disk := filepath.Join(dir, s.node)
	if err := os.MkdirAll(disk, 0o755); err != nil {
		return nil, err
	}
	if traced {
		s.ob = obs.New(proto.NodeID(s.node))
	}
	s.cli = client.New(client.Config{
		User:         proto.UserID(benchUser),
		Session:      proto.SessionID(spec.id),
		Coordinators: []proto.NodeID{coordID},
		Logging:      msglog.NonBlockingPessimistic,
		OnResult:     func(res proto.Result, at time.Time) { or.deliver(res, at) },
		OnSubmitComplete: func(seq proto.RPCSeq, _, at time.Time) {
			or.submitted(proto.CallID{User: benchUser, Session: proto.SessionID(spec.id), Seq: seq}, at)
		},
		Obs: s.ob,
	})
	rtm, err := rt.Start(rt.Config{
		ID:         proto.NodeID(s.node),
		ListenAddr: addr,
		Directory:  rt.Directory{coordID: coordAddr},
		DiskDir:    disk,
		Handler:    s.cli,
		Logf:       func(string, ...any) {},
		Obs:        s.ob,
	})
	if err != nil {
		return nil, fmt.Errorf("session %s: %w", s.node, err)
	}
	s.rtm = rtm
	return s, nil
}

// submit issues one call on the session's event loop and registers it
// with the oracle before any result can arrive.
func (s *session) submit(rec *callRecord, or *oracle) {
	rec.t = &s.t
	s.rtm.Do(func() {
		seq := s.cli.Submit(rec.spec.service, rec.spec.params, rec.spec.execTime, 0)
		rec.id = proto.CallID{User: benchUser, Session: proto.SessionID(s.spec.id), Seq: seq}
		or.expect(rec)
	})
}

// shutdown closes the session's runtime; closing twice is harmless.
func (s *session) shutdown() { s.rtm.Close() }
