package main

import (
	"context"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
)

// The server logic lives in internal/serve with its own tests; here we
// cover the flag-to-config surface and the HTTP server's lifecycle.

func TestUnknownScenario(t *testing.T) {
	err := run([]string{"-scenario", "nope", "-addr", "127.0.0.1:0"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "unknown scenario") {
		t.Fatalf("err = %v, want unknown scenario", err)
	}
}

func TestBadFlag(t *testing.T) {
	if err := run([]string{"-no-such-flag"}, io.Discard); err == nil {
		t.Fatal("expected flag parse error")
	}
}

// TestShutdownDrainsInFlight builds the server through newHTTPServer,
// checks its timeouts, and shuts it down while a request is in flight:
// the request still answers 200, and serveUntil returns cleanly.
func TestShutdownDrainsInFlight(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	hs := newHTTPServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
		io.WriteString(w, "done")
	}))
	if hs.ReadHeaderTimeout != readHeaderTimeout || hs.IdleTimeout != idleTimeout ||
		hs.ReadHeaderTimeout <= 0 || hs.IdleTimeout <= 0 {
		t.Fatalf("timeouts: read-header %v, idle %v", hs.ReadHeaderTimeout, hs.IdleTimeout)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- serveUntil(ctx, hs, ln) }()

	type result struct {
		code int
		body string
		err  error
	}
	got := make(chan result, 1)
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String() + "/")
		if err != nil {
			got <- result{err: err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		got <- result{code: resp.StatusCode, body: string(body), err: err}
	}()
	<-entered
	// Shutdown runs its hooks after closing the listener: only then may
	// the in-flight handler finish.
	hs.RegisterOnShutdown(func() { close(release) })
	cancel() // what SIGINT/SIGTERM does
	r := <-got
	if r.err != nil || r.code != http.StatusOK || r.body != "done" {
		t.Fatalf("in-flight request: code %d body %q err %v, want 200 \"done\"", r.code, r.body, r.err)
	}
	if err := <-served; err != nil {
		t.Fatalf("serveUntil: %v", err)
	}
}
