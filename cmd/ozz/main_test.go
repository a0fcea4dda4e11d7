package main

import (
	"errors"
	"io"
	"net"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"ozz/internal/dist"
	"ozz/internal/modules"
)

// TestParseBugsRejectsUnknown: -bugs accepts "all", "", and lists of
// registered switches, and names the first unregistered switch — a typo or
// a retired name — instead of running with that bug silently off.
func TestParseBugsRejectsUnknown(t *testing.T) {
	all, err := parseBugs("all")
	if err != nil || len(all) != len(modules.AllBugs()) {
		t.Fatalf(`parseBugs("all") = %d names, %v; want %d, nil`, len(all), err, len(modules.AllBugs()))
	}
	if none, err := parseBugs(""); none != nil || err != nil {
		t.Fatalf(`parseBugs("") = %v, %v; want nil, nil`, none, err)
	}
	want := []string{"watchqueue:pipe_wmb", "tls:sk_prot_wmb"}
	if got, err := parseBugs(strings.Join(want, ",")); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("parseBugs(list) = %v, %v; want %v, nil", got, err, want)
	}
	for _, bad := range []string{"watchqueue:pipe_wmbx", "sbitmap:migration_assist", "tls:sk_prot_wmb,nosuch", "watchqueue:pipe_wmb,"} {
		got, err := parseBugs(bad)
		if err == nil {
			t.Errorf("parseBugs(%q) = %v, nil; want an error", bad, got)
			continue
		}
		name := bad[strings.LastIndex(bad, ",")+1:]
		if !strings.Contains(err.Error(), `"`+name+`"`) || !strings.Contains(err.Error(), "-list") {
			t.Errorf("parseBugs(%q) error %q does not name %q and point at -list", bad, err, name)
		}
	}
}

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
