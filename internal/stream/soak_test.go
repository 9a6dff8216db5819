package stream

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"qarv/internal/alloc"
	"qarv/internal/obs"
)

// waitGoroutines polls until the goroutine count falls back to at most
// base+slack, failing the test otherwise — the leak check every
// shutdown test runs.
func waitGoroutines(t *testing.T, base int, slack int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base+slack {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d now, %d at baseline", runtime.NumGoroutine(), base)
}

// TestSoakFleetConservation is the N-devices × M-frames soak: many
// concurrent sessions against one budget-multiplexed server, asserting
// per-connection ack monotonicity (cumulative ServedBytes never goes
// backwards), byte conservation at drain (bytes sent == bytes acked on
// every session, and the server's served == acked == the fleet total),
// and a clean goroutine teardown. Run under -race in CI.
func TestSoakFleetConservation(t *testing.T) {
	const (
		devices      = 12
		framesPerDev = 40
	)
	baseline := runtime.NumGoroutine()
	reg := obs.NewRegistry()
	srv, err := Serve("127.0.0.1:0", ServerConfig{
		Budget:    32e6,
		Allocator: &alloc.ProportionalBacklog{ReserveFraction: 0.2},
		Metrics:   reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var wg sync.WaitGroup
	errCh := make(chan error, devices)
	var totalBytes, totalFrames int64
	var mu sync.Mutex
	for dev := 0; dev < devices; dev++ {
		wg.Add(1)
		go func(dev int) {
			defer wg.Done()
			client, err := Dial(srv.Addr())
			if err != nil {
				errCh <- err
				return
			}
			defer client.Close()
			var sent int64
			for i := 0; i < framesPerDev; i++ {
				// Vary payload sizes so backlogs differ across devices
				// and the proportional allocator has real work to do.
				payload := make([]byte, 512*(1+(dev+i)%7))
				if err := client.SendFrame(Frame{ID: uint32(i), Depth: 8, Payload: payload}); err != nil {
					errCh <- fmt.Errorf("device %d frame %d: %w", dev, i, err)
					return
				}
				sent += int64(len(payload))
			}
			if !client.WaitForAcks(30 * time.Second) {
				errCh <- fmt.Errorf("device %d did not drain", dev)
				return
			}
			st := client.Stats()
			if st.AckRegressions != 0 {
				errCh <- fmt.Errorf("device %d saw %d ack regressions", dev, st.AckRegressions)
				return
			}
			if st.AckedBytes != uint64(sent) || st.SentBytes != uint64(sent) {
				errCh <- fmt.Errorf("device %d conservation broken: sent %d, acked %d", dev, st.SentBytes, st.AckedBytes)
				return
			}
			if q := client.BacklogBytes(); q != 0 {
				errCh <- fmt.Errorf("device %d drained with backlog %v", dev, q)
				return
			}
			if st.AllocatedBps <= 0 {
				errCh <- fmt.Errorf("device %d never observed an allocated share", dev)
				return
			}
			mu.Lock()
			totalBytes += sent
			totalFrames += framesPerDev
			mu.Unlock()
		}(dev)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if t.Failed() {
		return
	}

	ss := srv.Stats()
	if ss.BytesServed != uint64(totalBytes) || ss.BytesAcked != uint64(totalBytes) {
		t.Errorf("server conservation: served %d, acked %d, fleet sent %d", ss.BytesServed, ss.BytesAcked, totalBytes)
	}
	if ss.FramesServed != int(totalFrames) || ss.AckFailures != 0 {
		t.Errorf("server frames: %+v, fleet sent %d", ss, totalFrames)
	}
	if got := reg.Counter(MetricBytesAcked).Value(); got != totalBytes {
		t.Errorf("%s = %d, want %d", MetricBytesAcked, got, totalBytes)
	}
	var shares uint64
	for _, h := range reg.Snapshot().Histograms {
		if h.Name == MetricAllocShare {
			shares = h.Count
		}
	}
	if shares == 0 {
		t.Errorf("allocator-share series empty despite a paced fleet")
	}
	if peak := reg.Gauge(MetricSessionsPeak).Value(); peak < 1 || peak > devices {
		t.Errorf("sessions peak %v out of range [1,%d]", peak, devices)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	waitGoroutines(t, baseline, 3)
}

// TestCloseDuringActiveTrafficNoLeak floods a paced server from many
// devices and closes it mid-traffic: Close must return promptly (no
// handler deadlock even with frames mid-pace) and every server
// goroutine must exit.
func TestCloseDuringActiveTrafficNoLeak(t *testing.T) {
	const devices = 8
	baseline := runtime.NumGoroutine()
	srv, err := Serve("127.0.0.1:0", ServerConfig{
		Budget:    100_000, // tight: frames queue up and pace slowly
		Allocator: alloc.EqualSplit{},
	})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for dev := 0; dev < devices; dev++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client, err := Dial(srv.Addr())
			if err != nil {
				return
			}
			defer client.Close()
			payload := make([]byte, 4096)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := client.SendFrame(Frame{ID: uint32(i), Payload: payload}); err != nil {
					return
				}
				time.Sleep(time.Millisecond)
			}
		}()
	}
	time.Sleep(100 * time.Millisecond) // let traffic build against the tight budget
	done := make(chan error, 1)
	go func() { done <- srv.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("close: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close deadlocked during active traffic")
	}
	close(stop)
	wg.Wait()
	if err := srv.Wait(); !errors.Is(err, ErrServerClosed) {
		t.Errorf("Wait = %v", err)
	}
	waitGoroutines(t, baseline, 3)
}

// TestDrainServesQueuedFrames: Drain must stop accepting immediately
// but let already-shipped frames finish serving within the deadline.
func TestDrainServesQueuedFrames(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", ServerConfig{
		Budget:    2e6,
		Allocator: alloc.EqualSplit{},
	})
	if err != nil {
		t.Fatal(err)
	}
	client, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	const frames = 10
	payload := make([]byte, 20_000) // 200 KB total ≈ 100 ms of service
	for i := 0; i < frames; i++ {
		if err := client.SendFrame(Frame{ID: uint32(i), Payload: payload}); err != nil {
			t.Fatal(err)
		}
	}

	drained := make(chan error, 1)
	go func() { drained <- srv.Drain(10 * time.Second) }()
	// The listener must be gone promptly even while serving continues.
	dialDeadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := net.DialTimeout("tcp", srv.Addr(), 100*time.Millisecond); err != nil {
			break
		}
		if time.Now().After(dialDeadline) {
			t.Fatal("drain never stopped accepting connections")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !client.WaitForAcks(10 * time.Second) {
		t.Fatal("queued frames were not served during drain")
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	ss := srv.Stats()
	if ss.FramesAcked != frames || ss.BytesAcked != uint64(frames*len(payload)) {
		t.Errorf("drain lost frames: %+v", ss)
	}
	if err := srv.Wait(); !errors.Is(err, ErrServerClosed) {
		t.Errorf("Wait after drain = %v, want ErrServerClosed", err)
	}
	if err := srv.Close(); !errors.Is(err, ErrServerClosed) {
		t.Errorf("Close after drain = %v, want ErrServerClosed", err)
	}
}

// TestDrainDeadlineCutsSlowSessions: a backlog that cannot be served
// within the drain deadline is cut, and Drain still returns promptly.
func TestDrainDeadlineCutsSlowSessions(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", ServerConfig{
		Budget:    20_000, // 100 KB of backlog ≈ 5 s of service
		Allocator: alloc.EqualSplit{},
	})
	if err != nil {
		t.Fatal(err)
	}
	client, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	payload := make([]byte, 10_000)
	for i := 0; i < 10; i++ {
		if err := client.SendFrame(Frame{ID: uint32(i), Payload: payload}); err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()
	if err := srv.Drain(300 * time.Millisecond); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Errorf("drain with a 300ms deadline took %v", took)
	}
	ss := srv.Stats()
	if ss.FramesServed >= 10 {
		t.Errorf("deadline did not cut the slow session: %+v", ss)
	}
}

// TestMaxConnsSheds: connections beyond the cap are closed immediately
// and counted; admitted sessions keep working.
func TestMaxConnsSheds(t *testing.T) {
	reg := obs.NewRegistry()
	srv, err := Serve("127.0.0.1:0", ServerConfig{MaxConns: 2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conns := make([]net.Conn, 0, 4)
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	for i := 0; i < 4; i++ {
		c, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, c)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		ss := srv.Stats()
		if ss.Shed == 2 && ss.Live == 2 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	ss := srv.Stats()
	if ss.Shed != 2 || ss.Live != 2 {
		t.Fatalf("after 4 dials with MaxConns=2: %+v", ss)
	}
	if got := reg.Counter(MetricShed).Value(); got != 2 {
		t.Errorf("%s = %d, want 2", MetricShed, got)
	}
	// Shed connections are dead: a read hits EOF promptly.
	sawDead := 0
	for _, c := range conns {
		c.SetReadDeadline(time.Now().Add(500 * time.Millisecond))
		if _, _, err := ReadMessage(c); err != nil {
			if ne, ok := err.(net.Error); !ok || !ne.Timeout() {
				sawDead++
			}
		}
	}
	if sawDead < 2 {
		t.Errorf("only %d of the shed connections read as closed", sawDead)
	}
}

// TestIdleTimeoutDropsSilentConnections: a device that stops sending is
// dropped after IdleTimeout, freeing its session slot.
func TestIdleTimeoutDropsSilentConnections(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", ServerConfig{IdleTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Say nothing; the server must hang up on us.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, _, err := ReadMessage(conn); err == nil {
		t.Fatal("idle connection was never dropped")
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if srv.Stats().Live == 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("idle session still registered: %+v", srv.Stats())
}

// TestAckFailureDistinguishesServedFromAcked is the regression test for
// the ack-path accounting gap: when a device disappears mid-service
// (half-closed connection), the frame's service cost is still counted
// as served, but the acked counters must not advance and the failure
// must be visible in its own series.
func TestAckFailureDistinguishesServedFromAcked(t *testing.T) {
	reg := obs.NewRegistry()
	srv, err := Serve("127.0.0.1:0", ServerConfig{
		Budget:    50_000, // a 20 KB frame takes ~400 ms to serve
		Allocator: alloc.EqualSplit{},
		Metrics:   reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 20_000)
	if err := WriteFrame(conn, Frame{ID: 1, Depth: 8, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	// Give the server time to read the frame into its queue, then
	// vanish with an RST so the eventual ack write fails outright.
	time.Sleep(50 * time.Millisecond)
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetLinger(0)
	}
	conn.Close()

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		ss := srv.Stats()
		if ss.FramesServed == 1 && ss.AckFailures == 1 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	ss := srv.Stats()
	if ss.FramesServed != 1 || ss.BytesServed != uint64(len(payload)) {
		t.Fatalf("frame was not served: %+v", ss)
	}
	if ss.FramesAcked != 0 || ss.BytesAcked != 0 {
		t.Errorf("acked counters advanced past a failed ack: %+v", ss)
	}
	if ss.AckFailures != 1 {
		t.Errorf("ack failure not counted: %+v", ss)
	}
	if got := reg.Counter(MetricAckFailures).Value(); got != 1 {
		t.Errorf("%s = %d, want 1", MetricAckFailures, got)
	}
	if got, want := reg.Counter(MetricBytes).Value(), int64(len(payload)); got != want {
		t.Errorf("%s = %d, want %d", MetricBytes, got, want)
	}
	if got := reg.Counter(MetricBytesAcked).Value(); got != 0 {
		t.Errorf("%s = %d, want 0", MetricBytesAcked, got)
	}
}

// TestBudgetSplitsAcrossConnections: with a shared budget and equal
// split, K concurrent identical sessions each observe roughly budget/K
// in their acks — the ack-carried backpressure signal.
func TestBudgetSplitsAcrossConnections(t *testing.T) {
	const budget = 4e6
	const devices = 4
	srv, err := Serve("127.0.0.1:0", ServerConfig{
		Budget:    budget,
		Allocator: alloc.EqualSplit{},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var wg sync.WaitGroup
	shares := make([]float64, devices)
	errCh := make(chan error, devices)
	for dev := 0; dev < devices; dev++ {
		wg.Add(1)
		go func(dev int) {
			defer wg.Done()
			client, err := Dial(srv.Addr())
			if err != nil {
				errCh <- err
				return
			}
			defer client.Close()
			payload := make([]byte, 8192)
			for i := 0; i < 20; i++ {
				if err := client.SendFrame(Frame{ID: uint32(i), Payload: payload}); err != nil {
					errCh <- err
					return
				}
				time.Sleep(2 * time.Millisecond)
			}
			if !client.WaitForAcks(30 * time.Second) {
				errCh <- fmt.Errorf("device %d did not drain", dev)
				return
			}
			shares[dev] = client.Stats().AllocatedBps
		}(dev)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	for dev, share := range shares {
		if share < budget/devices*0.5 || share > budget {
			t.Errorf("device %d share %v implausible for budget %v / %d devices", dev, share, budget, devices)
		}
	}
}
