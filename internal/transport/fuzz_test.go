package transport

import (
	"context"
	"io"
	"net"
	"testing"
	"time"

	"zaatar/internal/obs"
)

// FuzzServeHello feeds arbitrary bytes to Service.ServeConn as a client's
// opening stream. Whatever arrives, ServeConn must return — with an error
// or a clean end — and never panic or hang. The checked-in corpus
// (testdata/fuzz/FuzzServeHello) starts from a valid hash-only hello, that
// hello followed by its source upload, and a hello claiming version 2.
func FuzzServeHello(f *testing.F) {
	svc := NewService(ServiceOptions{
		Workers:     1,
		MaxSessions: 1,
		MaxBatch:    4,
		IOTimeout:   100 * time.Millisecond,
		IdleTimeout: 100 * time.Millisecond,
		Obs:         obs.NewRegistry(),
	})
	f.Fuzz(func(t *testing.T, stream []byte) {
		client, server := net.Pipe()
		done := make(chan error, 1)
		go func() { done <- svc.ServeConn(context.Background(), server) }()
		go func() { _, _ = io.Copy(io.Discard, client) }()
		go func() {
			_, _ = client.Write(stream)
			client.Close()
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("ServeConn hung on the opening stream")
		}
	})
}
