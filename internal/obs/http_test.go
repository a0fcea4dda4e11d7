package obs

import (
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestHandlerMetrics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("ozz_mti_pairs_total", "MTI pairs.").Add(5)
	srv := httptest.NewServer(Handler(reg))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "ozz_mti_pairs_total 5") {
		t.Errorf("body missing sample:\n%s", body)
	}
}

func TestHandlerPprofAndBanner(t *testing.T) {
	srv := httptest.NewServer(Handler(NewRegistry()))
	defer srv.Close()
	for path, want := range map[string]int{
		"/debug/pprof/": 200,
		"/":             200,
		"/nope":         404,
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s = %d, want %d", path, resp.StatusCode, want)
		}
	}
}

func TestServe(t *testing.T) {
	reg := NewRegistry()
	reg.Gauge("ozz_up", "Liveness.").Set(1)
	bound, stop, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	resp, err := http.Get("http://" + bound + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "ozz_up 1") {
		t.Errorf("served body missing gauge:\n%s", body)
	}
}

// TestServeDropsStalledHeader: a client that sends half a request header
// and then stalls is disconnected once the header timeout passes, instead
// of holding its connection open indefinitely.
func TestServeDropsStalledHeader(t *testing.T) {
	defer func(d time.Duration) { readHeaderTimeout = d }(readHeaderTimeout)
	readHeaderTimeout = 200 * time.Millisecond
	bound, stop, err := Serve("127.0.0.1:0", NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	conn, err := net.Dial("tcp", bound)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := conn.Write([]byte("GET /metrics HTTP/1.1\r\nHost: ozz\r\n")); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	_, err = io.ReadAll(conn)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("stalled client still connected after %v", time.Since(start))
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Errorf("stalled client dropped after %v, want about %v", el, readHeaderTimeout)
	}
}

// TestServePprofProfile: the timeouts leave the streaming pprof endpoints
// usable — a short CPU profile still comes back whole.
func TestServePprofProfile(t *testing.T) {
	bound, stop, err := Serve("127.0.0.1:0", NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	resp, err := http.Get("http://" + bound + "/debug/pprof/profile?seconds=1")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || len(body) == 0 {
		t.Fatalf("profile: status %d, %d bytes: %.200s", resp.StatusCode, len(body), body)
	}
}
