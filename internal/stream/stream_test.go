package stream

import (
	"bytes"
	"errors"
	"strconv"
	"sync"
	"testing"
	"time"

	"qarv/internal/core"
	"qarv/internal/delay"
	"qarv/internal/octree"
	"qarv/internal/quality"
	"qarv/internal/synthetic"
)

func TestWireRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	want := Frame{ID: 42, Depth: 9, Payload: []byte("octree bits")}
	if err := WriteFrame(&buf, want); err != nil {
		t.Fatal(err)
	}
	if err := WriteAck(&buf, Ack{FrameID: 42, ServedBytes: 1234}); err != nil {
		t.Fatal(err)
	}
	f, a, err := ReadMessage(&buf)
	if err != nil || a != nil || f == nil {
		t.Fatalf("first message: %v %v %v", f, a, err)
	}
	if f.ID != 42 || f.Depth != 9 || string(f.Payload) != "octree bits" {
		t.Errorf("frame = %+v", f)
	}
	f, a, err = ReadMessage(&buf)
	if err != nil || f != nil || a == nil {
		t.Fatalf("second message: %v %v %v", f, a, err)
	}
	if a.FrameID != 42 || a.ServedBytes != 1234 {
		t.Errorf("ack = %+v", a)
	}
}

func TestWireErrors(t *testing.T) {
	if _, _, err := ReadMessage(bytes.NewReader([]byte("XXXX\x01\x01\x00\x00\x00\x00"))); !errors.Is(err, ErrBadWireMagic) {
		t.Errorf("bad magic: %v", err)
	}
	if _, _, err := ReadMessage(bytes.NewReader([]byte("QSTR\x07\x01\x00\x00\x00\x00"))); !errors.Is(err, ErrBadVersion) {
		t.Errorf("bad version: %v", err)
	}
	// A retired protocol-v1 ack (12-byte payload) is refused, not decoded.
	v1ack := []byte("QSTR\x01\x02\x0c\x00\x00\x00\x07\x00\x00\x00\x00\x10\x00\x00\x00\x00\x00\x00")
	if _, _, err := ReadMessage(bytes.NewReader(v1ack)); !errors.Is(err, ErrBadVersion) {
		t.Errorf("v1 ack: %v", err)
	}
	if _, _, err := ReadMessage(bytes.NewReader([]byte("QSTR\x02\x09\x00\x00\x00\x00"))); !errors.Is(err, ErrBadMessageType) {
		t.Errorf("bad type: %v", err)
	}
	// Oversized length field.
	big := []byte("QSTR\x02\x01\xff\xff\xff\xff")
	if _, _, err := ReadMessage(bytes.NewReader(big)); !errors.Is(err, ErrOversized) {
		t.Errorf("oversized: %v", err)
	}
	// Truncated payload.
	var buf bytes.Buffer
	if err := WriteFrame(&buf, Frame{ID: 1, Payload: []byte("abcdef")}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, _, err := ReadMessage(bytes.NewReader(data[:len(data)-3])); !errors.Is(err, ErrShortMessage) {
		t.Errorf("truncated: %v", err)
	}
	// Oversized write is refused client-side.
	if err := writeMessage(&bytes.Buffer{}, msgFrame, make([]byte, maxPayload+1)); !errors.Is(err, ErrOversized) {
		t.Errorf("oversized write: %v", err)
	}
}

// testOctree builds a small real octree whose streams the session ships.
func testOctree(t *testing.T) *octree.Octree {
	t.Helper()
	cloud, err := synthetic.Generate(synthetic.Config{
		SamplesTarget: 8000, CaptureDepth: 8, Seed: 12,
	}, synthetic.Pose{})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := octree.Build(cloud, 8)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func TestSessionDeliversAndAcks(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", ServerConfig{Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	tree := testOctree(t)
	payload, err := tree.SerializeWithColorsBytes(6)
	if err != nil {
		t.Fatal(err)
	}
	const frames = 20
	for i := 0; i < frames; i++ {
		if err := client.SendFrame(Frame{ID: uint32(i), Depth: 6, Payload: payload}); err != nil {
			t.Fatal(err)
		}
	}
	if !client.WaitForAcks(5 * time.Second) {
		t.Fatal("session did not drain")
	}
	st := client.Stats()
	if st.AckedFrames != frames || st.SentFrames != frames {
		t.Errorf("stats = %+v", st)
	}
	if st.AckedBytes != uint64(frames*len(payload)) {
		t.Errorf("acked bytes = %d, want %d", st.AckedBytes, frames*len(payload))
	}
	if client.BacklogBytes() != 0 {
		t.Errorf("drained backlog = %v", client.BacklogBytes())
	}
	ss := srv.Stats()
	if ss.FramesServed != frames || ss.BytesServed != uint64(frames*len(payload)) || ss.Corrupt != 0 {
		t.Errorf("server stats: %+v", ss)
	}
	if ss.FramesAcked != frames || ss.BytesAcked != ss.BytesServed || ss.AckFailures != 0 {
		t.Errorf("served/acked diverged on a healthy session: %+v", ss)
	}
	if st.MeanLatency <= 0 || st.MaxLatency < st.MeanLatency {
		t.Errorf("latencies: %+v", st)
	}
}

func TestServerDropsCorruptFrames(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", ServerConfig{Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	tree := testOctree(t)
	good, err := tree.SerializeWithColorsBytes(5)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.SendFrame(Frame{ID: 0, Depth: 5, Payload: good}); err != nil {
		t.Fatal(err)
	}
	if err := client.SendFrame(Frame{ID: 1, Depth: 5, Payload: []byte("garbage stream")}); err != nil {
		t.Fatal(err)
	}
	if err := client.SendFrame(Frame{ID: 2, Depth: 5, Payload: good}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if ss := srv.Stats(); ss.FramesServed == 2 && ss.Corrupt == 1 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	ss := srv.Stats()
	t.Fatalf("server stats after corrupt frame: frames=%d corrupt=%d", ss.FramesServed, ss.Corrupt)
}

func TestControllerAdaptsToSlowServer(t *testing.T) {
	// The live loop: a paced server (limited bytes/sec) and a device
	// sending frames as fast as acks allow its backlog estimate to be
	// meaningful. The controller must shed depth as unacked bytes pile
	// up, and the session must stay bounded.
	tree := testOctree(t)
	bytesProfile, err := tree.StreamSizeProfile(true)
	if err != nil {
		t.Fatal(err)
	}
	occupancy := tree.Profile()
	util, err := quality.NewLogPointUtility(occupancy)
	if err != nil {
		t.Fatal(err)
	}
	cost, err := delay.NewPointCostModel(bytesProfile, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	depths := []int{4, 5, 6, 7, 8}
	// Server throughput: between bytes(7) and bytes(8) per frame period.
	framePeriod := 5 * time.Millisecond
	perFrameBudget := float64(bytesProfile[7]) + 0.5*float64(bytesProfile[8]-bytesProfile[7])
	bytesPerSecond := perFrameBudget * float64(time.Second/framePeriod)

	cfg := core.Config{Depths: depths, Utility: util, Cost: cost}
	v, err := core.CalibrateV(10, perFrameBudget, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.V = v
	ctrl, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	srv, err := Serve("127.0.0.1:0", ServerConfig{Budget: bytesPerSecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	payloads := make(map[int][]byte, len(depths))
	for _, d := range depths {
		p, err := tree.SerializeWithColorsBytes(d)
		if err != nil {
			t.Fatal(err)
		}
		payloads[d] = p
	}

	const frames = 120
	chosen := make([]int, 0, frames)
	for i := 0; i < frames; i++ {
		q := client.BacklogBytes()
		d := ctrl.Decide(i, q)
		chosen = append(chosen, d)
		if err := client.SendFrame(Frame{ID: uint32(i), Depth: uint8(d), Payload: payloads[d]}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(framePeriod)
	}
	if !client.WaitForAcks(15 * time.Second) {
		t.Fatal("live session did not drain")
	}
	// The controller must have started at max depth and backed off at
	// least once as the real backlog built.
	if chosen[0] != 8 {
		t.Errorf("first decision = %d, want 8", chosen[0])
	}
	backedOff := false
	for _, d := range chosen {
		if d < 8 {
			backedOff = true
			break
		}
	}
	if !backedOff {
		t.Errorf("controller never backed off against the paced server: %v", histogram(chosen))
	}
	// Backlog at the end of sending must be bounded well below the
	// everything-at-max total.
	maxTotal := float64(frames * bytesProfile[8])
	if q := client.BacklogBytes(); q > maxTotal/4 {
		t.Errorf("final backlog %v suspiciously close to unbounded growth", q)
	}
}

func histogram(xs []int) string {
	h := map[int]int{}
	for _, x := range xs {
		h[x]++
	}
	out := ""
	for d := 0; d <= 10; d++ {
		if h[d] > 0 {
			out += strconv.Itoa(d) + ":" + strconv.Itoa(h[d]) + " "
		}
	}
	return out
}

func TestServerCloseUnblocksHandlers(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	client, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	// Handler is blocked reading; Close must return promptly anyway.
	done := make(chan error, 1)
	go func() { done <- srv.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server close hung on a blocked handler")
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Error("dial to a dead port must error")
	}
}

func TestServerCloseReportsErrServerClosed(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("first close: %v", err)
	}
	// Wait distinguishes a clean caller-initiated shutdown.
	if err := srv.Wait(); !errors.Is(err, ErrServerClosed) {
		t.Errorf("Wait after clean close = %v, want ErrServerClosed", err)
	}
	// Repeat closes are idempotent and identify the closed state.
	if err := srv.Close(); !errors.Is(err, ErrServerClosed) {
		t.Errorf("second close = %v, want ErrServerClosed", err)
	}
}

func TestServerCloseRacesNewConnections(t *testing.T) {
	// Connections keep arriving while Close runs: the restructured
	// handler registration must never trip the WaitGroup (all Adds
	// happen on goroutines whose own entries are still held), and Close
	// must still return promptly. Run with -race to check the old
	// Add-vs-Wait hazard.
	srv, err := Serve("127.0.0.1:0", ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	stop := make(chan struct{})
	var dialers sync.WaitGroup
	for i := 0; i < 8; i++ {
		dialers.Add(1)
		go func() {
			defer dialers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				c, err := Dial(addr)
				if err != nil {
					return // listener gone: server closing
				}
				_ = c.SendFrame(Frame{ID: 1, Payload: []byte("x")})
				c.Close()
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	done := make(chan error, 1)
	go func() { done <- srv.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("close: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("close hung while connections raced in")
	}
	close(stop)
	dialers.Wait()
	if err := srv.Wait(); !errors.Is(err, ErrServerClosed) {
		t.Errorf("Wait = %v", err)
	}
}
