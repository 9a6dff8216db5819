package stream

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// Client is the device side: it ships frames and tracks the number of
// unacknowledged bytes in flight — the live uplink backlog Q(t) the
// depth controller observes. All state is local to the device, matching
// the paper's distributed-operation claim.
type Client struct {
	conn net.Conn

	mu           sync.Mutex
	sentBytes    uint64
	ackedBytes   uint64
	sentFrames   int
	ackedFrames  int
	allocatedBps float64
	regressions  int
	latencies    []time.Duration
	sendTimes    map[uint32]time.Time
	readErr      error

	done chan struct{}
}

// Dial connects to an edge server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("stream: dial: %w", err)
	}
	c := &Client{
		conn:      conn,
		sendTimes: make(map[uint32]time.Time),
		done:      make(chan struct{}),
	}
	go c.readLoop()
	return c, nil
}

// readLoop consumes acknowledgements until the connection closes.
func (c *Client) readLoop() {
	defer close(c.done)
	for {
		_, ack, err := ReadMessage(c.conn)
		if err != nil {
			c.mu.Lock()
			c.readErr = err
			c.mu.Unlock()
			return
		}
		if ack == nil {
			continue
		}
		c.mu.Lock()
		c.ackedFrames++
		if ack.ServedBytes < c.ackedBytes {
			// The served counter is cumulative, so a regression is a
			// server-side accounting bug; count it for the soak tests
			// rather than silently rewinding the backlog estimate.
			c.regressions++
		} else {
			c.ackedBytes = ack.ServedBytes
		}
		c.allocatedBps = float64(ack.AllocatedBps)
		if sent, ok := c.sendTimes[ack.FrameID]; ok {
			//qarv:allow nondeterminism RTT measurement over a real socket is wall-clock by definition
			c.latencies = append(c.latencies, time.Since(sent))
			delete(c.sendTimes, ack.FrameID)
		}
		c.mu.Unlock()
	}
}

// SendFrame ships one frame. It returns immediately after the write; the
// acknowledgement arrives asynchronously.
func (c *Client) SendFrame(f Frame) error {
	c.mu.Lock()
	if err := c.readErr; err != nil && !errors.Is(err, net.ErrClosed) {
		c.mu.Unlock()
		return fmt.Errorf("stream: session broken: %w", err)
	}
	//qarv:allow nondeterminism RTT measurement over a real socket is wall-clock by definition
	c.sendTimes[f.ID] = time.Now()
	c.sentFrames++
	c.sentBytes += uint64(len(f.Payload))
	c.mu.Unlock()
	return WriteFrame(c.conn, f)
}

// BacklogBytes returns the bytes sent but not yet acknowledged — the
// device's local view of the uplink/service queue.
func (c *Client) BacklogBytes() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sentBytes < c.ackedBytes {
		return 0
	}
	return float64(c.sentBytes - c.ackedBytes)
}

// Stats summarizes the session so far.
type ClientStats struct {
	SentFrames  int
	AckedFrames int
	SentBytes   uint64
	AckedBytes  uint64
	// AllocatedBps is the edge's most recently acked share for this
	// connection in bytes/second — the ack-carried backpressure signal
	// (zero before the first ack or against an unpaced server).
	AllocatedBps float64
	// AckRegressions counts acks whose cumulative ServedBytes went
	// backwards — always zero against a correct server.
	AckRegressions int
	// MeanLatency is the average send→ack round trip.
	MeanLatency time.Duration
	// MaxLatency is the worst round trip.
	MaxLatency time.Duration
}

// Stats returns a snapshot of the session counters.
func (c *Client) Stats() ClientStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := ClientStats{
		SentFrames:     c.sentFrames,
		AckedFrames:    c.ackedFrames,
		SentBytes:      c.sentBytes,
		AckedBytes:     c.ackedBytes,
		AllocatedBps:   c.allocatedBps,
		AckRegressions: c.regressions,
	}
	var sum time.Duration
	for _, l := range c.latencies {
		sum += l
		if l > st.MaxLatency {
			st.MaxLatency = l
		}
	}
	if len(c.latencies) > 0 {
		st.MeanLatency = sum / time.Duration(len(c.latencies))
	}
	return st
}

// Latencies returns a copy of every send→ack round trip recorded so
// far, for callers that need the full distribution (bench percentiles)
// rather than the mean/max summary in Stats.
func (c *Client) Latencies() []time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]time.Duration, len(c.latencies))
	copy(out, c.latencies)
	return out
}

// WaitForAcks blocks until all sent frames are acknowledged or the
// timeout expires; it reports whether the session fully drained.
func (c *Client) WaitForAcks(timeout time.Duration) bool {
	//qarv:allow nondeterminism drain timeout over a real socket is wall-clock by definition
	deadline := time.Now().Add(timeout)
	//qarv:allow nondeterminism drain timeout over a real socket is wall-clock by definition
	for time.Now().Before(deadline) {
		c.mu.Lock()
		drained := c.ackedFrames >= c.sentFrames
		c.mu.Unlock()
		if drained {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return false
}

// Close shuts the connection down and waits for the reader to exit.
func (c *Client) Close() error {
	err := c.conn.Close()
	<-c.done
	return err
}
