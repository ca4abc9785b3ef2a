package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"time"

	"innsearch/internal/core"
	"innsearch/internal/server/wire"
	"innsearch/internal/user"
)

// Store admission errors; the handlers map them to 429 and 503.
var (
	errAtCapacity = errors.New("server: at max concurrent sessions")
	errDraining   = errors.New("server: draining, not accepting sessions")
	errEvicted    = errors.New("server: session evicted after idle timeout")
)

// session is one hosted interactive session: the engine goroutine runs
// RunContext against the remote (or simulated) user while handlers talk
// to it through remote and the done channel.
type session struct {
	id      string
	remote  *user.Remote // nil for server-driven (heuristic/oracle) users
	cancel  context.CancelCauseFunc
	done    chan struct{} // closed when the engine goroutine returns
	created time.Time

	mu        sync.Mutex
	lastTouch time.Time
	state     string // wire.State* (computing/awaiting are both "running" here)
	result    *core.Result
	err       error
}

// running reports whether the engine goroutine is still alive.
func (s *session) running() bool {
	select {
	case <-s.done:
		return false
	default:
		return true
	}
}

// touch refreshes the idle clock.
func (s *session) touch() {
	s.mu.Lock()
	s.lastTouch = time.Now()
	s.mu.Unlock()
}

// idle returns how long the session has gone without client contact.
func (s *session) idle() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return time.Since(s.lastTouch)
}

// finish records the engine outcome exactly once.
func (s *session) finish(res *core.Result, err error) {
	s.mu.Lock()
	s.result = res
	s.err = err
	switch {
	case err == nil:
		s.state = wire.StateDone
	case errors.Is(err, errEvicted):
		s.state = wire.StateEvicted
	case errors.Is(err, errClientClosed):
		s.state = wire.StateClosed
	default:
		s.state = wire.StateFailed
	}
	s.mu.Unlock()
	close(s.done)
}

// outcome returns the final state once done is closed.
func (s *session) outcome() (string, *core.Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state, s.result, s.err
}

var errClientClosed = errors.New("server: session closed by client")

// store is the concurrent session table: admission control (max live
// sessions, drain), ID allocation, and TTL eviction. Finished sessions
// linger for one TTL so clients can still fetch their result, then their
// entries are dropped; evicted sessions linger as tombstones for one more
// TTL so a late decision gets a clear 410 rather than a 404.
type store struct {
	maxSessions int
	ttl         time.Duration
	metrics     *metrics

	mu       sync.Mutex
	sessions map[string]*session
	draining bool

	stop     chan struct{}
	sweeper  sync.WaitGroup
	stopOnce sync.Once
}

func newStore(maxSessions int, ttl, sweepEvery time.Duration, m *metrics) *store {
	st := &store{
		maxSessions: maxSessions,
		ttl:         ttl,
		metrics:     m,
		sessions:    make(map[string]*session),
		stop:        make(chan struct{}),
	}
	if sweepEvery <= 0 {
		sweepEvery = ttl / 4
		if sweepEvery <= 0 {
			sweepEvery = time.Second
		}
	}
	st.sweeper.Add(1)
	go st.sweepLoop(sweepEvery)
	return st
}

// add admits a new session, enforcing drain and capacity. The caller
// fills in the session's engine goroutine after admission.
func (st *store) add(s *session) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.draining {
		return errDraining
	}
	live := 0
	for _, other := range st.sessions {
		if other.running() {
			live++
		}
	}
	if live >= st.maxSessions {
		return errAtCapacity
	}
	st.sessions[s.id] = s
	return nil
}

// get looks a session up and refreshes its idle clock.
func (st *store) get(id string) (*session, bool) {
	st.mu.Lock()
	s, ok := st.sessions[id]
	st.mu.Unlock()
	if ok {
		s.touch()
	}
	return s, ok
}

// active counts live sessions.
func (st *store) active() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	n := 0
	for _, s := range st.sessions {
		if s.running() {
			n++
		}
	}
	return n
}

func (st *store) isDraining() bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.draining
}

// sweepLoop evicts idle sessions and reaps old tombstones.
func (st *store) sweepLoop(every time.Duration) {
	defer st.sweeper.Done()
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	for {
		select {
		case <-st.stop:
			return
		case <-ticker.C:
			st.sweep()
		}
	}
}

func (st *store) sweep() {
	st.mu.Lock()
	var evict []*session
	for id, s := range st.sessions {
		idle := s.idle()
		switch {
		case s.running() && idle > st.ttl:
			evict = append(evict, s)
		case !s.running() && idle > 2*st.ttl:
			delete(st.sessions, id)
		}
	}
	st.mu.Unlock()
	for _, s := range evict {
		s.cancel(fmt.Errorf("%w (idle %v > ttl %v)", errEvicted, s.idle().Round(time.Millisecond), st.ttl))
		st.metrics.add(sessionsEvicted, 1)
	}
}

// drain stops admitting sessions and waits for the live ones to finish,
// up to ctx's deadline; stragglers are then canceled.
func (st *store) drain(ctx context.Context) {
	st.mu.Lock()
	st.draining = true
	live := make([]*session, 0, len(st.sessions))
	for _, s := range st.sessions {
		if s.running() {
			live = append(live, s)
		}
	}
	st.mu.Unlock()
	for _, s := range live {
		select {
		case <-s.done:
		case <-ctx.Done():
			s.cancel(fmt.Errorf("server: shutdown: %w", context.Cause(ctx)))
		}
	}
}

// close cancels everything and stops the sweeper. Safe to call more than
// once.
func (st *store) close() {
	st.stopOnce.Do(func() { close(st.stop) })
	st.sweeper.Wait()
	st.mu.Lock()
	live := make([]*session, 0, len(st.sessions))
	for _, s := range st.sessions {
		if s.running() {
			live = append(live, s)
		}
	}
	st.mu.Unlock()
	for _, s := range live {
		s.cancel(errors.New("server: shutting down"))
		<-s.done
	}
}

// newSessionID returns an unguessable 16-hex-digit session ID.
func newSessionID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is unrecoverable for a server; fall back to
		// a time-derived ID rather than crash the request.
		return fmt.Sprintf("s%016x", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}
