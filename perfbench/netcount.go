package main

import (
	"net"
	"sync/atomic"
)

// countingListener wraps the listener handed to a server and counts, from
// the server's side, the bytes it reads (client → server, "in") and writes
// (server → client, "out") on every accepted connection. The program never
// sees the difference: it gets ordinary net.Conns.
type countingListener struct {
	net.Listener
	in, out atomic.Int64
}

func newCountingListener(ln net.Listener) *countingListener {
	return &countingListener{Listener: ln}
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, l: l}, nil
}

// wireBytes is a snapshot of the two directions.
type wireBytes struct{ in, out int64 }

func (l *countingListener) snapshot() wireBytes {
	return wireBytes{in: l.in.Load(), out: l.out.Load()}
}

func (b wireBytes) sub(o wireBytes) wireBytes { return wireBytes{in: b.in - o.in, out: b.out - o.out} }
func (b wireBytes) add(o wireBytes) wireBytes { return wireBytes{in: b.in + o.in, out: b.out + o.out} }
func (b wireBytes) total() int64              { return b.in + b.out }

type countingConn struct {
	net.Conn
	l *countingListener
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.l.in.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.l.out.Add(int64(n))
	return n, err
}

// wireMeter sums several listeners (a farm has one per worker).
type wireMeter []*countingListener

func (m wireMeter) snapshot() wireBytes {
	var b wireBytes
	for _, l := range m {
		b = b.add(l.snapshot())
	}
	return b
}
