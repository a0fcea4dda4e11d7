package main

import (
	"errors"
	"io"
	"net"
	"net/http"
	"testing"
	"time"

	"ozz/internal/dist"
)

// TestManagerServerDropsStalledHeader: a client that sends half a request
// header to the manager and then stalls is disconnected once the header
// timeout passes, while a well-formed request still gets its answer.
func TestManagerServerDropsStalledHeader(t *testing.T) {
	defer func(d time.Duration) { managerHeaderTimeout = d }(managerHeaderTimeout)
	managerHeaderTimeout = 200 * time.Millisecond
	m, err := dist.NewManager(dist.ManagerConfig{TotalSteps: 64, ShardSteps: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	srv := managerServer(m.Handler())
	for name, got := range map[string]time.Duration{
		"ReadTimeout": srv.ReadTimeout, "WriteTimeout": srv.WriteTimeout, "IdleTimeout": srv.IdleTimeout,
	} {
		if got <= 0 {
			t.Errorf("manager server %s unset", name)
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := conn.Write([]byte("POST " + dist.PathPoll + " HTTP/1.1\r\nHost: ozz\r\n")); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	_, err = io.ReadAll(conn)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("stalled client still connected after %v", time.Since(start))
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Errorf("stalled client dropped after %v, want about %v", el, managerHeaderTimeout)
	}

	resp, err := http.Get("http://" + ln.Addr().String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("/metrics after a stalled client: status %d", resp.StatusCode)
	}
}
