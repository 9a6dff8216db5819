package stream

import (
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"qarv/internal/alloc"
	"qarv/internal/obs"
	"qarv/internal/octree"
)

// ServerConfig controls the edge service.
type ServerConfig struct {
	// Budget is the shared uplink service budget in bytes/second,
	// multiplexed across all live connections by Allocator. 0 = unpaced
	// (every frame is served and acked immediately).
	//
	// This replaces the PR 1–8 BytesPerSecond field, which paced every
	// connection independently at the full rate; see MIGRATION.md.
	Budget float64
	// Allocator splits Budget across the live connections, re-run every
	// allocEvery tick and on every connect/disconnect with each
	// connection's received-but-unserved bytes as its backlog. Nil
	// defaults to alloc.EqualSplit. The server serializes all Allocate
	// calls, so the single-goroutine allocator contract holds.
	Allocator alloc.Allocator
	// MaxConns caps concurrently admitted connections; arrivals beyond
	// the cap are shed (closed immediately after accept, counted in
	// Stats().Shed and stream_shed_total). 0 = unlimited.
	MaxConns int
	// IdleTimeout drops a connection whose next frame does not arrive in
	// time — per-connection read deadlines so dead devices cannot pin
	// session slots. 0 = no idle limit.
	IdleTimeout time.Duration
	// Validate decodes every received stream and rejects corrupt frames.
	Validate bool
	// Metrics receives the stream_* counters (connections, frames,
	// bytes, corrupt frames, acks, ack failures, sheds, backpressure
	// stalls, allocator shares). Nil disables metric collection. Serve
	// it with obs.Handler or obs.NewDebugMux.
	Metrics *obs.Registry
	// Recorder receives connection-lifecycle and stall records. This is
	// the live wire, so records are stamped with wall-clock microseconds
	// since server start rather than virtual slots.
	Recorder *obs.FlightRecorder
}

// Edge-service tuning constants.
const (
	// allocEvery is the reallocation period: how often the allocator
	// re-splits Budget across live connections between membership
	// changes (which reallocate immediately).
	allocEvery = 10 * time.Millisecond
	// recvQueueDepth bounds each connection's received-but-unserved
	// frame queue. A full queue stops that connection's read loop, so
	// backpressure propagates into the kernel socket buffer and from
	// there to the device's writes — the live analogue of a bounded
	// uplink queue.
	recvQueueDepth = 64
	// paceSlice caps one pacing sleep, so share changes from the
	// allocator and drain deadlines take effect promptly mid-frame.
	paceSlice = 50 * time.Millisecond
)

// ErrServerClosed reports a clean, caller-initiated shutdown: Wait
// returns it after Close or Drain, and Close itself returns it when
// called again on an already-closed server — mirroring net/http's
// convention so callers can distinguish orderly teardown from accept
// failures.
var ErrServerClosed = errors.New("stream: server closed")

// ServerStats is a snapshot of the server's cumulative counters. Served
// and acked diverge when an acknowledgement write fails: the frame's
// service cost was paid (FramesServed/BytesServed) but the device never
// learned it (FramesAcked/BytesAcked stay behind, AckFailures counts
// the loss).
type ServerStats struct {
	FramesServed int
	BytesServed  uint64
	FramesAcked  int
	BytesAcked   uint64
	AckFailures  int
	Corrupt      int
	Shed         int
	// Live is the number of currently admitted connections.
	Live int
}

// session is the per-connection state the edge service keeps: identity,
// the received-but-unserved byte backlog the allocator observes, and the
// connection's current share of the uplink budget.
type session struct {
	id      int64
	pending atomic.Int64  // bytes read off the socket but not yet served
	share   atomic.Uint64 // math.Float64bits of allocated bytes/second
}

// shareBps returns the session's current allocated rate in bytes/second.
func (ss *session) shareBps() float64 { return math.Float64frombits(ss.share.Load()) }

// setShare stores a new allocated rate.
func (ss *session) setShare(v float64) { ss.share.Store(math.Float64bits(v)) }

// Server is the edge-side service: it accepts device connections,
// multiplexes the shared uplink budget across them through the
// configured allocator, paces each connection at its allocated share,
// and acknowledges every served frame with the cumulative served byte
// count and the connection's current share.
type Server struct {
	cfg       ServerConfig
	allocator alloc.Allocator
	ln        net.Listener
	stop      chan struct{} // closed on Close (and at the end of Drain)
	stopOnce  sync.Once
	drainCh   chan struct{} // closed when Drain begins
	drainOnce sync.Once
	drainKill chan struct{} // closed when the drain deadline passes
	wg        sync.WaitGroup
	tickWg    sync.WaitGroup
	done      chan struct{} // closed when the accept loop exits
	tel       *serverTelemetry
	start     time.Time    // server start, base for flight-record stamps
	connSeq   atomic.Int64 // connection ids for flight-record tracks
	drainAt   atomic.Int64 // drain deadline, unix nanos; 0 = not draining

	mu           sync.Mutex
	closed       bool
	loopErr      error // why the accept loop exited
	framesServed int
	bytesServed  uint64
	framesAcked  int
	bytesAcked   uint64
	ackFailSeen  int
	corruptSeen  int
	shedSeen     int

	sessMu     sync.Mutex
	sessions   []*session // live connections in admission order
	allocEpoch int        // the t passed to Allocate
}

// Serve starts a server on addr ("127.0.0.1:0" for an ephemeral port).
func Serve(addr string, cfg ServerConfig) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("stream: listen: %w", err)
	}
	al := cfg.Allocator
	if al == nil {
		al = alloc.EqualSplit{}
	}
	s := &Server{
		cfg:       cfg,
		allocator: al,
		ln:        ln,
		stop:      make(chan struct{}),
		drainCh:   make(chan struct{}),
		drainKill: make(chan struct{}),
		done:      make(chan struct{}),
	}
	s.tel = newServerTelemetry(cfg.Metrics, cfg.Recorder)
	//qarv:allow nondeterminism live-server trace timestamps are wall-clock by design
	s.start = time.Now()
	if cfg.Budget > 0 {
		s.tickWg.Add(1)
		go s.allocLoop()
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the server's listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Stats reports a snapshot of the cumulative counters.
func (s *Server) Stats() ServerStats {
	s.sessMu.Lock()
	live := len(s.sessions)
	s.sessMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	return ServerStats{
		FramesServed: s.framesServed,
		BytesServed:  s.bytesServed,
		FramesAcked:  s.framesAcked,
		BytesAcked:   s.bytesAcked,
		AckFailures:  s.ackFailSeen,
		Corrupt:      s.corruptSeen,
		Shed:         s.shedSeen,
		Live:         live,
	}
}

// Close stops accepting, closes the listener, unblocks every handler
// immediately (in-service frames are abandoned), and waits for all
// connection handlers to exit. The first call returns the listener's
// close error (nil on a clean shutdown); subsequent calls return
// ErrServerClosed. For a shutdown that lets queued frames finish, use
// Drain.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrServerClosed
	}
	s.closed = true
	s.mu.Unlock()
	s.stopOnce.Do(func() { close(s.stop) })
	err := s.ln.Close()
	s.wg.Wait()
	s.tickWg.Wait()
	return err
}

// Drain shuts the server down gracefully: it stops accepting new
// connections at once, lets every admitted connection finish the frames
// it has already shipped (reads and pacing continue), and bounds the
// whole wind-down by timeout — when the deadline passes, remaining
// connections are cut exactly as Close would. Drain returns the
// listener's close error after all handlers have exited; a subsequent
// Close returns ErrServerClosed and Wait reports ErrServerClosed.
func (s *Server) Drain(timeout time.Duration) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrServerClosed
	}
	s.closed = true
	s.mu.Unlock()
	//qarv:allow nondeterminism drain deadlines on a live server are wall-clock by design
	deadline := time.Now().Add(timeout)
	s.drainAt.Store(deadline.UnixNano())
	s.drainOnce.Do(func() { close(s.drainCh) })
	kill := time.AfterFunc(timeout, func() { close(s.drainKill) })
	err := s.ln.Close()
	s.wg.Wait()
	kill.Stop()
	s.stopOnce.Do(func() { close(s.stop) })
	s.tickWg.Wait()
	if tel := s.tel; tel != nil {
		tel.rec.Event(s.sinceMicros(), "stream", "drained", 0, 0)
	}
	return err
}

// Wait blocks until the accept loop has exited and reports why:
// ErrServerClosed after a clean Close or Drain, or the fatal accept
// error that tore the loop down.
func (s *Server) Wait() error {
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.loopErr
}

// closing reports whether Close or Drain has been initiated.
func (s *Server) closing() bool {
	select {
	case <-s.stop:
		return true
	default:
	}
	select {
	case <-s.drainCh:
		return true
	default:
	}
	return false
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	defer close(s.done)
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			if s.closing() {
				// Caller-initiated shutdown (Close or Drain).
				s.mu.Lock()
				s.loopErr = ErrServerClosed
				s.mu.Unlock()
				return
			}
			if errors.Is(err, net.ErrClosed) {
				// Listener died without Close: a real failure.
				s.mu.Lock()
				s.loopErr = err
				s.mu.Unlock()
				return
			}
			// Transient accept error: keep serving.
			continue
		}
		// Add happens on the accept-loop goroutine, whose own wg entry
		// (taken in Serve) is still held — so the counter can never be
		// observed at zero by a concurrent Close/Wait while handlers
		// are still being registered.
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(conn)
		}()
	}
}

// allocLoop periodically re-runs the allocator over the live sessions so
// shares track each connection's observed backlog between membership
// changes.
func (s *Server) allocLoop() {
	defer s.tickWg.Done()
	ticker := time.NewTicker(allocEvery)
	defer ticker.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-ticker.C:
			s.sessMu.Lock()
			s.reallocateLocked()
			s.sessMu.Unlock()
		}
	}
}

// reallocateLocked re-splits the budget across the current sessions;
// the caller holds sessMu. Sessions are walked in admission order, so
// order-sensitive allocators (weighted round-robin rotation) see a
// stable indexing between membership changes.
func (s *Server) reallocateLocked() {
	n := len(s.sessions)
	if n == 0 || s.cfg.Budget <= 0 {
		return
	}
	backlogs := make([]float64, n)
	shares := make([]float64, n)
	for i, ss := range s.sessions {
		backlogs[i] = float64(ss.pending.Load())
	}
	s.allocator.Allocate(s.allocEpoch, s.cfg.Budget, backlogs, shares)
	s.allocEpoch++
	for i, ss := range s.sessions {
		ss.setShare(shares[i])
		if tel := s.tel; tel != nil {
			tel.allocShare.Observe(shares[i])
		}
	}
}

// register admits a new connection into the session set, or reports a
// shed when the connection limit is reached.
func (s *Server) register(id int64) *session {
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	if s.cfg.MaxConns > 0 && len(s.sessions) >= s.cfg.MaxConns {
		return nil
	}
	ss := &session{id: id}
	s.sessions = append(s.sessions, ss)
	s.reallocateLocked()
	if tel := s.tel; tel != nil {
		tel.sessionsPeak.Record(float64(len(s.sessions)))
	}
	return ss
}

// unregister removes a departed connection and re-splits the budget
// across the survivors.
func (s *Server) unregister(ss *session) {
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	for i, x := range s.sessions {
		if x == ss {
			s.sessions = append(s.sessions[:i], s.sessions[i+1:]...)
			break
		}
	}
	s.reallocateLocked()
}

// sinceMicros returns wall-clock microseconds since server start — the
// Slot stamp for this package's flight records. The simulator records
// virtual slots; a live server has no slot clock, so traces use real
// time and are diagnostics only, never part of a deterministic report.
func (s *Server) sinceMicros() int64 {
	//qarv:allow nondeterminism live-server trace timestamps are wall-clock by design
	return time.Since(s.start).Microseconds()
}

// handle processes one device connection until EOF, idle timeout, or
// shutdown.
func (s *Server) handle(conn net.Conn) {
	defer conn.Close()
	connID := s.connSeq.Add(1)
	ss := s.register(connID)
	if ss == nil {
		// Accept-queue shedding: over the connection limit, the cheapest
		// honest signal is an immediate close — the device's next read
		// or write fails and its controller backs off or re-dials.
		s.mu.Lock()
		s.shedSeen++
		s.mu.Unlock()
		if tel := s.tel; tel != nil {
			tel.shed.Inc()
			tel.rec.Event(s.sinceMicros(), "stream", "shed", connID, 0)
		}
		return
	}
	defer s.unregister(ss)
	var served uint64
	if tel := s.tel; tel != nil {
		tel.connections.Inc()
		tel.rec.Event(s.sinceMicros(), "stream", "accept", connID, 0)
		defer func() {
			tel.rec.Event(s.sinceMicros(), "stream", "close", connID, float64(served))
		}()
	}
	// A watcher unblocks the read loop on shutdown by expiring the
	// connection deadline — immediately on Close, at the drain deadline
	// on Drain. Its lifetime is strictly inside handle's (we join it
	// before returning), so it needs no WaitGroup entry of its own — the
	// handler's entry covers it, and no Add can race Wait.
	done := make(chan struct{})
	watcherDone := make(chan struct{})
	go func() {
		defer close(watcherDone)
		select {
		case <-s.stop:
			//qarv:allow nondeterminism immediate deadline is the idiomatic way to unblock a live socket read
			conn.SetDeadline(time.Now())
		case <-s.drainCh:
			conn.SetDeadline(time.Unix(0, s.drainAt.Load()))
			select {
			case <-s.stop:
				//qarv:allow nondeterminism immediate deadline is the idiomatic way to unblock a live socket read
				conn.SetDeadline(time.Now())
			case <-done:
			}
		case <-done:
		}
	}()
	defer func() {
		close(done)
		<-watcherDone
	}()

	// The read and serve halves are decoupled by a bounded frame queue:
	// the reader pulls frames off the socket as fast as the queue
	// accepts them (building the backlog signal the allocator observes),
	// while the serve loop paces each frame at the session's allocated
	// share and acks it.
	queue := make(chan *Frame, recvQueueDepth)
	quit := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		defer close(queue)
		s.readLoop(conn, ss, queue, quit, connID)
	}()
	served = s.serveLoop(conn, ss, queue, connID)
	close(quit)
	_ = conn.Close() // unblock a reader still mid-Read; already-closed is fine
	<-readerDone
}

// readLoop pulls frames off the socket into the session queue until the
// connection errors (EOF, deadline, protocol violation) or quit closes.
func (s *Server) readLoop(conn net.Conn, ss *session, queue chan<- *Frame, quit <-chan struct{}, connID int64) {
	for {
		if s.cfg.IdleTimeout > 0 {
			//qarv:allow nondeterminism idle timeouts on a live socket are wall-clock by definition
			deadline := time.Now().Add(s.cfg.IdleTimeout)
			if at := s.drainAt.Load(); at != 0 {
				if dd := time.Unix(0, at); dd.Before(deadline) {
					deadline = dd
				}
			}
			_ = conn.SetReadDeadline(deadline) // a dead conn fails the next Read anyway
			// Close the race against the shutdown watcher: if stop fired
			// between its SetDeadline and ours, ours must not revive the
			// read.
			select {
			case <-s.stop:
				//qarv:allow nondeterminism immediate deadline is the idiomatic way to unblock a live socket read
				_ = conn.SetDeadline(time.Now()) // a dead conn fails the next Read anyway
			default:
			}
		}
		frame, _, err := ReadMessage(conn)
		if err != nil {
			return // EOF, deadline, or protocol error: drop the session
		}
		if frame == nil {
			continue // acks from a confused peer are ignored
		}
		if s.cfg.Validate {
			if _, err := octree.DeserializeWithColorsBytes(frame.Payload); err != nil {
				s.mu.Lock()
				s.corruptSeen++
				s.mu.Unlock()
				if tel := s.tel; tel != nil {
					tel.corrupt.Inc()
					tel.rec.Event(s.sinceMicros(), "stream", "corrupt", connID, float64(len(frame.Payload)))
				}
				continue // corrupt frames are dropped, not acked
			}
		}
		ss.pending.Add(int64(len(frame.Payload)))
		select {
		case queue <- frame:
		case <-quit:
			ss.pending.Add(-int64(len(frame.Payload)))
			return
		}
	}
}

// serveLoop paces and acknowledges queued frames until the queue closes
// (reader gone), the server stops, or the drain deadline passes. It
// returns the cumulative bytes served on this connection.
func (s *Server) serveLoop(conn net.Conn, ss *session, queue <-chan *Frame, connID int64) (served uint64) {
	for {
		var frame *Frame
		select {
		case f, ok := <-queue:
			if !ok {
				return served
			}
			frame = f
		case <-s.stop:
			return served
		case <-s.drainKill:
			return served
		}
		n := len(frame.Payload)
		if !s.pace(n, ss, connID) {
			return served // interrupted by Close or the drain deadline
		}
		served += uint64(n)
		ss.pending.Add(-int64(n))
		s.mu.Lock()
		s.framesServed++
		s.bytesServed += uint64(n)
		s.mu.Unlock()
		if tel := s.tel; tel != nil {
			tel.frames.Inc()
			tel.bytes.Add(int64(n))
		}
		ack := Ack{
			FrameID:      frame.ID,
			ServedBytes:  served,
			AllocatedBps: uint64(ss.shareBps()),
		}
		if err := WriteAck(conn, ack); err != nil {
			// The service cost was paid but the device never learned it:
			// served and acked counters diverge here, and the failure is
			// its own series so operators can see half-closed sessions.
			s.mu.Lock()
			s.ackFailSeen++
			s.mu.Unlock()
			if tel := s.tel; tel != nil {
				tel.ackFailures.Inc()
				tel.rec.Event(s.sinceMicros(), "stream", "ack-fail", connID, float64(n))
			}
			return served
		}
		s.mu.Lock()
		s.framesAcked++
		s.bytesAcked += uint64(n)
		s.mu.Unlock()
		if tel := s.tel; tel != nil {
			tel.acks.Inc()
			tel.bytesAcked.Add(int64(n))
		}
	}
}

// pace charges one frame of n payload bytes against the session's
// allocated share, sleeping in bounded slices so reallocation, Close,
// and the drain deadline all take effect mid-frame. It reports false
// when interrupted by Close or the drain deadline.
func (s *Server) pace(n int, ss *session, connID int64) bool {
	if s.cfg.Budget <= 0 {
		return true
	}
	//qarv:allow nondeterminism service pacing on a live connection is wall-clock by design
	last := time.Now()
	var credit float64 // bytes of service accumulated at the allocated rate
	var stalled time.Duration
	for {
		//qarv:allow nondeterminism service pacing on a live connection is wall-clock by design
		now := time.Now()
		rate := ss.shareBps()
		credit += rate * now.Sub(last).Seconds()
		last = now
		if credit >= float64(n) {
			break
		}
		var wait time.Duration
		if rate <= 0 {
			// No allocated capacity right now: wait out a reallocation
			// period and re-check.
			wait = allocEvery
		} else {
			wait = time.Duration((float64(n) - credit) / rate * float64(time.Second))
			if wait > paceSlice {
				wait = paceSlice
			}
		}
		if !s.sleepInterruptible(wait) {
			return false
		}
		stalled += wait
	}
	if stalled > 0 {
		if tel := s.tel; tel != nil {
			tel.stalls.Inc()
			tel.stallMicros.Observe(float64(stalled.Microseconds()))
			tel.rec.Span(s.sinceMicros()-stalled.Microseconds(), stalled.Microseconds(), "stream", "stall", connID, float64(n))
		}
	}
	return true
}

// sleepInterruptible sleeps for d unless Close fires or the drain
// deadline passes first; it reports whether the sleep completed.
func (s *Server) sleepInterruptible(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-s.stop:
		return false
	case <-s.drainKill:
		return false
	}
}
