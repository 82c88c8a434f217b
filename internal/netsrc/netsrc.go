// Package netsrc provides network transport for trajectory streams: a TCP
// server that ingests records from many concurrent publishers (one
// connection per sensor gateway, say) and a client for publishing. The
// wire format is the TRJ1 binary framing of package trajio.
//
// The server forwards every record to a single handler; ordering is
// preserved per connection (TCP FIFO), and cross-connection synchronization
// is exactly what the pipeline's source partitions handle.
package netsrc

import (
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"

	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/trajio"
)

// Handler consumes one record from the network.
type Handler func(trajio.Rec)

// RecordHandler bridges network ingestion to the pipeline's source stage:
// every record is forwarded raw to push — typically
// core.Pipeline.PushRecord — and the last-time tracking, deduplication and
// coverage assembly all happen inside the dataflow's source partitions.
// The handler is stateless, so any number of publisher connections feed
// one job concurrently, and after a crash recovery each publisher simply
// replays its stream: the restored partition state drops what the
// checkpoint already absorbed.
func RecordHandler(push func(model.ObjectID, geo.Point, model.Tick)) Handler {
	return func(r trajio.Rec) { push(r.Object, r.Loc, r.Tick) }
}

// Server ingests record streams over TCP.
type Server struct {
	ln      net.Listener
	handler Handler
	logf    func(format string, args ...any)

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// Serve listens on addr (e.g. "127.0.0.1:7077") and dispatches records to
// handler until Close. It returns once the listener is ready; accept and
// read loops run in background goroutines.
func Serve(addr string, handler Handler) (*Server, error) {
	if handler == nil {
		return nil, errors.New("netsrc: nil handler")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("netsrc: %w", err)
	}
	s := &Server{
		ln:      ln,
		handler: handler,
		logf:    log.Printf,
		conns:   make(map[net.Conn]struct{}),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound listener address ("127.0.0.1:PORT").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// SetLogf overrides the error logger (tests silence it).
func (s *Server) SetLogf(f func(string, ...any)) { s.logf = f }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.readLoop(conn)
	}
}

func (s *Server) readLoop(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	r, err := trajio.NewBinReader(conn)
	if err != nil {
		s.logf("netsrc: %v: %v", conn.RemoteAddr(), err)
		return
	}
	for {
		rec, err := r.Read()
		if errors.Is(err, io.EOF) {
			return
		}
		if err != nil {
			if !s.isClosed() {
				s.logf("netsrc: %v: %v", conn.RemoteAddr(), err)
			}
			return
		}
		s.handler(rec)
	}
}

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Close stops accepting, closes all connections, and waits for the read
// loops to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

// Publisher streams records to a server.
type Publisher struct {
	conn net.Conn
	w    *trajio.BinWriter
}

// Dial connects to a netsrc server.
func Dial(addr string) (*Publisher, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("netsrc: %w", err)
	}
	w, err := trajio.NewBinWriter(conn)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return &Publisher{conn: conn, w: w}, nil
}

// Publish sends one record (buffered; call Flush or Close to push).
func (p *Publisher) Publish(rec trajio.Rec) error { return p.w.Write(rec) }

// Flush pushes buffered records to the socket.
func (p *Publisher) Flush() error { return p.w.Flush() }

// Close flushes and closes the connection.
func (p *Publisher) Close() error {
	ferr := p.w.Flush()
	cerr := p.conn.Close()
	if ferr != nil {
		return ferr
	}
	return cerr
}
