package proto

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// Conn is a bidirectional, message-oriented connection between one
// DUST-Client and the DUST-Manager.
type Conn interface {
	// Send delivers m to the peer; it blocks until accepted or the
	// connection closes. Send does not retain m, or any slice m
	// references, after it returns: a sender may build every frame in one
	// reused Message and overwrite it, slices included, once Send is back.
	Send(m *Message) error
	// Recv overwrites m with the next message from the peer, blocking
	// until one arrives or the connection closes (io.EOF-like error).
	// No field of the message m held before survives, and Recv never
	// writes into the slices a previous message left in m, so a caller may
	// keep those slices while reusing m.
	Recv(m *Message) error
	// Buffered is a lower bound on how many messages Recv can return
	// without blocking; zero means the next Recv may wait on the peer.
	// Only the receiving goroutine may call it.
	Buffered() int
	// Close tears the connection down; pending and future Send/Recv fail.
	Close() error
}

// ErrClosed is returned by operations on a closed connection.
var ErrClosed = errors.New("proto: connection closed")

// chanConn is one endpoint of an in-memory connection pair.
type chanConn struct {
	out       chan<- *Message
	in        <-chan *Message
	closeOnce *sync.Once
	closed    chan struct{}
}

// Pipe returns two connected in-memory endpoints with the given buffer
// depth. Closing either endpoint closes both directions.
func Pipe(depth int) (Conn, Conn) {
	ab := make(chan *Message, depth)
	ba := make(chan *Message, depth)
	closed := make(chan struct{})
	once := &sync.Once{}
	a := &chanConn{out: ab, in: ba, closeOnce: once, closed: closed}
	b := &chanConn{out: ba, in: ab, closeOnce: once, closed: closed}
	return a, b
}

// Send queues a deep copy of m: the queue outlives the call, and m is
// the caller's to reuse once Send returns.
func (c *chanConn) Send(m *Message) error {
	select {
	case <-c.closed:
		return ErrClosed
	default:
	}
	select {
	case c.out <- m.clone():
		return nil
	case <-c.closed:
		return ErrClosed
	}
}

func (c *chanConn) Recv(m *Message) error {
	select {
	case src := <-c.in:
		*m = *src
		return nil
	case <-c.closed:
		// Drain anything already queued before reporting closure.
		select {
		case src := <-c.in:
			*m = *src
			return nil
		default:
			return ErrClosed
		}
	}
}

func (c *chanConn) Buffered() int { return len(c.in) }

func (c *chanConn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return nil
}

// ConnDeadlines bounds single blocking operations on a net-backed Conn so
// a stuck or silent peer can never wedge a goroutine indefinitely. A zero
// value disables the corresponding deadline. The read deadline must exceed
// the expected message cadence (STAT/keepalive interval), or healthy idle
// connections will be cut.
type ConnDeadlines struct {
	Read, Write time.Duration
}

// tcpConn frames messages over a net.Conn. Reads go through one buffer
// per connection, so a burst of small frames costs one read(2), not two
// per frame. Sends encode into one frame buffer per connection, so a send
// allocates nothing.
type tcpConn struct {
	nc     net.Conn
	br     *bufio.Reader
	dl     ConnDeadlines
	sendMu sync.Mutex
	wbuf   []byte // guarded by sendMu
	recvMu sync.Mutex
}

// NewNetConn wraps a stream connection (TCP, Unix socket) in the framed
// message protocol. Safe for one concurrent sender and one receiver.
func NewNetConn(nc net.Conn) Conn {
	return NewNetConnDeadlines(nc, ConnDeadlines{})
}

// NewNetConnDeadlines is NewNetConn with per-operation read/write
// deadlines applied to every Recv/Send.
func NewNetConnDeadlines(nc net.Conn, dl ConnDeadlines) Conn {
	return &tcpConn{nc: nc, br: bufio.NewReaderSize(nc, readBufSize), dl: dl}
}

func (c *tcpConn) Send(m *Message) error {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	if c.dl.Write > 0 {
		if err := c.nc.SetWriteDeadline(time.Now().Add(c.dl.Write)); err != nil {
			return err
		}
	}
	frame, err := appendFrame(c.wbuf[:0], m)
	if cap(frame) <= readBufSize {
		// A replication snapshot's frame is not kept alive between sends.
		c.wbuf = frame
	}
	if err != nil {
		return err
	}
	_, err = c.nc.Write(frame)
	return err
}

func (c *tcpConn) Recv(m *Message) error {
	c.recvMu.Lock()
	defer c.recvMu.Unlock()
	if c.dl.Read > 0 {
		if err := c.nc.SetReadDeadline(time.Now().Add(c.dl.Read)); err != nil {
			return err
		}
	}
	return ReadFrame(c.br, m)
}

func (c *tcpConn) Buffered() int {
	if frameBuffered(c.br) {
		return 1
	}
	return 0
}

func (c *tcpConn) Close() error { return c.nc.Close() }

// Dial connects to a DUST-Manager's TCP listener.
func Dial(addr string) (Conn, error) {
	return DialDeadlines(addr, ConnDeadlines{})
}

// DialDeadlines is Dial with per-operation read/write deadlines on the
// resulting connection.
func DialDeadlines(addr string, dl ConnDeadlines) (Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("proto: dial %s: %w", addr, err)
	}
	return NewNetConnDeadlines(nc, dl), nil
}

// Listener accepts framed-message connections.
type Listener struct {
	nl net.Listener

	mu sync.Mutex
	dl ConnDeadlines
}

// SetDeadlines configures the read/write deadlines applied to every
// subsequently accepted connection.
func (l *Listener) SetDeadlines(dl ConnDeadlines) {
	l.mu.Lock()
	l.dl = dl
	l.mu.Unlock()
}

// Listen starts a TCP listener for the manager side. addr like
// "127.0.0.1:0" picks an ephemeral port; Addr reports the bound address.
func Listen(addr string) (*Listener, error) {
	nl, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("proto: listen %s: %w", addr, err)
	}
	return &Listener{nl: nl}, nil
}

// Addr returns the bound address.
func (l *Listener) Addr() string { return l.nl.Addr().String() }

// Accept waits for the next client connection.
func (l *Listener) Accept() (Conn, error) {
	nc, err := l.nl.Accept()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	dl := l.dl
	l.mu.Unlock()
	return NewNetConnDeadlines(nc, dl), nil
}

// Close stops the listener.
func (l *Listener) Close() error { return l.nl.Close() }
