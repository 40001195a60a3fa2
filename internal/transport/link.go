package transport

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"govpic/internal/mp"
	"govpic/internal/perf"
)

// errClosed reports an operation on a transport whose own process
// initiated shutdown.
var errClosed = errors.New("transport: closed")

// errPeerClosed reports a peer that announced a graceful goodbye.
var errPeerClosed = errors.New("transport: peer closed")

// dataFrame is one queued application message.
type dataFrame struct {
	seq     uint64
	tag     int
	payload []byte
}

// inMsg is one decoded arrival.
type inMsg struct {
	tag  int
	data any
}

// acceptedConn is a handshaken connection routed from the listener to a
// link's supervisor, with the peer's resume point from its hello.
type acceptedConn struct {
	conn     net.Conn
	peerRecv uint64
}

// link is one bidirectional peer connection: bounded send and receive
// queues, a supervisor that owns the connection lifecycle (handshake,
// heartbeats, bounded reconnect with backoff), and a sequence-numbered
// replay buffer so messages in flight when a connection drops are
// redelivered exactly once after a reconnect.
type link struct {
	t      *TCP
	peer   int
	dialer bool   // this side (the higher rank) re-establishes the connection
	addr   string // peer's advertised listen address (dialer side)

	out   chan dataFrame    // queued sends, bounded at mp.LinkDepth
	in    chan inMsg        // decoded in-order arrivals, bounded
	conns chan acceptedConn // handshaken conns routed by the acceptor side
	pongs chan int64        // heartbeat stamps awaiting echo

	established chan struct{}
	estOnce     sync.Once

	dead     chan struct{}
	deadErr  error
	deadOnce sync.Once
	sawBye   bool // peer said goodbye: do not attempt reconnect

	mu      sync.Mutex
	sendSeq uint64      // last assigned outbound sequence number
	recvSeq uint64      // last inbound sequence delivered to `in`
	replay  []dataFrame // sent frames the peer has not yet acknowledged
	curConn net.Conn    // live connection, while serve is running

	stat *perf.LinkStat
}

// replayCap bounds the unacknowledged backlog per link; beyond it Send
// applies backpressure and eventually fails with LinkOverflowError.
const replayCap = 4 * mp.LinkDepth

func newLink(t *TCP, peer int, dialer bool) *link {
	return &link{
		t:           t,
		peer:        peer,
		dialer:      dialer,
		out:         make(chan dataFrame, mp.LinkDepth),
		in:          make(chan inMsg, mp.LinkDepth),
		conns:       make(chan acceptedConn, 1),
		pongs:       make(chan int64, 4),
		established: make(chan struct{}),
		dead:        make(chan struct{}),
		stat:        t.stats.Link(peer),
	}
}

func (l *link) markDead(err error) {
	l.deadOnce.Do(func() {
		l.deadErr = err
		close(l.dead)
	})
}

func (l *link) isDead() bool {
	select {
	case <-l.dead:
		return true
	default:
		return false
	}
}

// run is the link supervisor: acquire a connection, serve it until it
// breaks, reconnect within the bounded budget, and otherwise declare
// the peer dead so every blocked operation fails with an attributed
// error instead of hanging.
func (l *link) run() {
	defer l.t.wg.Done()
	for {
		conn, peerRecv, err := l.connect()
		if conn == nil {
			if l.t.isClosed() || l.sawByeLocked() {
				l.markDead(&mp.PeerDeadError{Rank: l.t.rank, Peer: l.peer, Cause: errClosed})
				return
			}
			l.markDead(&mp.PeerDeadError{Rank: l.t.rank, Peer: l.peer, Cause: err})
			return
		}
		l.estOnce.Do(func() { close(l.established) })
		l.serve(conn, peerRecv)
		conn.Close()
		if l.t.isClosed() || l.sawByeLocked() {
			l.markDead(&mp.PeerDeadError{Rank: l.t.rank, Peer: l.peer, Cause: errPeerClosed})
			return
		}
	}
}

func (l *link) sawByeLocked() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sawBye
}

// connect acquires a handshaken connection: the dialer side dials the
// peer's listener with exponential backoff over ConnectAttempts tries;
// the acceptor side waits for its listener to route a fresh handshake,
// for the same overall window.
func (l *link) connect() (net.Conn, uint64, error) {
	opts := &l.t.opts
	var lastErr error = fmt.Errorf("no connection from peer %d", l.peer)
	backoff := opts.ReconnectBackoff
	deadline := time.Now().Add(opts.connectWindow())
	for attempt := 0; attempt < opts.ConnectAttempts; attempt++ {
		if l.t.isClosed() {
			return nil, 0, errClosed
		}
		if attempt > 0 {
			select {
			case <-time.After(backoff):
			case <-l.t.closed:
				return nil, 0, errClosed
			}
			backoff *= 2
			if backoff > 5*time.Second {
				backoff = 5 * time.Second
			}
		}
		if l.dialer {
			c, err := net.DialTimeout("tcp", l.addr, opts.DialTimeout)
			if err != nil {
				lastErr = err
				continue
			}
			peerRecv, err := l.dialHandshake(c)
			if err != nil {
				c.Close()
				lastErr = err
				continue
			}
			return c, peerRecv, nil
		}
		wait := time.Until(deadline) / time.Duration(opts.ConnectAttempts-attempt)
		if wait < backoff {
			wait = backoff
		}
		select {
		case ac := <-l.conns:
			return ac.conn, ac.peerRecv, nil
		case <-time.After(wait):
		case <-l.t.closed:
			return nil, 0, errClosed
		}
	}
	return nil, 0, lastErr
}

// dialHandshake sends this side's hello (with its resume point) and
// validates the peer's.
func (l *link) dialHandshake(c net.Conn) (uint64, error) {
	opts := &l.t.opts
	c.SetDeadline(time.Now().Add(opts.DialTimeout))
	defer c.SetDeadline(time.Time{})
	l.mu.Lock()
	myRecv := l.recvSeq
	l.mu.Unlock()
	if err := writeFrame(c, frHello, encodeHelloBody(l.t.rank, myRecv)); err != nil {
		return 0, err
	}
	kind, body, err := readFrame(c, opts.MaxFrame)
	if err != nil {
		return 0, err
	}
	if kind != frHello {
		return 0, fmt.Errorf("transport: expected hello, got frame kind %d", kind)
	}
	rank, peerRecv, err := decodeHelloBody(body)
	if err != nil {
		return 0, err
	}
	if rank != l.peer {
		return 0, fmt.Errorf("transport: dialed rank %d, got hello from rank %d", l.peer, rank)
	}
	return peerRecv, nil
}

// serve drives one live connection: first replays every unacknowledged
// frame past the peer's resume point, then runs the writer (data,
// heartbeats, acks, pong echoes) and reader until either fails.
func (l *link) serve(conn net.Conn, peerRecv uint64) {
	opts := &l.t.opts
	l.mu.Lock()
	l.curConn = conn
	l.mu.Unlock()
	defer func() {
		l.mu.Lock()
		l.curConn = nil
		l.mu.Unlock()
	}()
	l.pruneReplay(peerRecv)
	l.mu.Lock()
	pending := append([]dataFrame(nil), l.replay...)
	l.mu.Unlock()
	for _, f := range pending {
		conn.SetWriteDeadline(time.Now().Add(opts.PeerTimeout))
		if err := writeFrame(conn, frData, encodeDataBody(f.seq, f.tag, f.payload)); err != nil {
			return
		}
	}
	errc := make(chan error, 2)
	stop := make(chan struct{})
	go l.writer(conn, errc, stop)
	go l.reader(conn, errc, stop)
	<-errc
	close(stop)
	conn.SetDeadline(time.Now()) // unblock the sibling's pending I/O
	<-errc
}

// writer owns all writes on one connection.
func (l *link) writer(conn net.Conn, errc chan<- error, stop <-chan struct{}) {
	opts := &l.t.opts
	hb := time.NewTicker(opts.HeartbeatInterval)
	defer hb.Stop()
	write := func(kind byte, body []byte) error {
		conn.SetWriteDeadline(time.Now().Add(opts.PeerTimeout))
		return writeFrame(conn, kind, body)
	}
	for {
		select {
		case f := <-l.out:
			if err := write(frData, encodeDataBody(f.seq, f.tag, f.payload)); err != nil {
				errc <- err
				return
			}
		case stamp := <-l.pongs:
			if err := write(frPong, encodeU64Body(uint64(stamp))); err != nil {
				errc <- err
				return
			}
		case <-hb.C:
			if err := write(frPing, encodeU64Body(uint64(time.Now().UnixNano()))); err != nil {
				errc <- err
				return
			}
			l.mu.Lock()
			recv := l.recvSeq
			l.mu.Unlock()
			if err := write(frAck, encodeU64Body(recv)); err != nil {
				errc <- err
				return
			}
		case <-l.t.closed:
			if !l.t.noBye.Load() {
				// Flush sends queued before Close first: select picks among
				// ready cases at random, and a goodbye that overtook them
				// would make the peer drop them as from a dead rank.
				l.flushOut(write)
				write(frBye, nil) // best-effort goodbye
			}
			errc <- errClosed
			return
		case <-stop:
			errc <- nil
			return
		}
	}
}

// flushOut writes every data frame still queued in l.out, stopping at
// the first write error.
func (l *link) flushOut(write func(kind byte, body []byte) error) {
	for {
		select {
		case f := <-l.out:
			if write(frData, encodeDataBody(f.seq, f.tag, f.payload)) != nil {
				return
			}
		default:
			return
		}
	}
}

// reader owns all reads on one connection: data frames are deduplicated
// by sequence number and delivered in order; control frames feed the
// failure detector, the RTT histogram and the replay pruner. The read
// deadline is the heartbeat-based failure detector — a healthy peer's
// writer never lets the line go silent for PeerTimeout.
func (l *link) reader(conn net.Conn, errc chan<- error, stop <-chan struct{}) {
	opts := &l.t.opts
	for {
		conn.SetReadDeadline(time.Now().Add(opts.PeerTimeout))
		kind, body, err := readFrame(conn, opts.MaxFrame)
		if err != nil {
			errc <- err
			return
		}
		switch kind {
		case frData:
			seq, tag, payload, err := decodeDataBody(body)
			if err != nil {
				errc <- err
				return
			}
			l.mu.Lock()
			dup := seq <= l.recvSeq
			l.mu.Unlock()
			if dup { // already delivered before the reconnect
				continue
			}
			data, err := DecodePayload(payload)
			if err != nil {
				errc <- err
				return
			}
			select {
			case l.in <- inMsg{tag: tag, data: data}:
				l.mu.Lock()
				l.recvSeq = seq
				l.mu.Unlock()
				l.stat.AddRecv(len(payload))
			case <-stop:
				errc <- nil
				return
			}
		case frPing:
			stamp, err := decodeU64Body(body)
			if err != nil {
				errc <- err
				return
			}
			select {
			case l.pongs <- int64(stamp):
			default: // writer busy; the next ping will measure
			}
		case frPong:
			stamp, err := decodeU64Body(body)
			if err != nil {
				errc <- err
				return
			}
			l.stat.ObserveRTT(time.Duration(time.Now().UnixNano() - int64(stamp)))
		case frAck:
			n, err := decodeU64Body(body)
			if err != nil {
				errc <- err
				return
			}
			l.pruneReplay(n)
		case frBye:
			l.mu.Lock()
			l.sawBye = true
			l.mu.Unlock()
			errc <- errPeerClosed
			return
		default:
			errc <- fmt.Errorf("transport: unexpected frame kind %d from peer %d", kind, l.peer)
			return
		}
	}
}

// pruneReplay drops every replay frame the peer has acknowledged.
func (l *link) pruneReplay(acked uint64) {
	l.mu.Lock()
	i := 0
	for i < len(l.replay) && l.replay[i].seq <= acked {
		i++
	}
	if i > 0 {
		l.replay = append(l.replay[:0], l.replay[i:]...)
	}
	l.mu.Unlock()
}

// dropFromReplay removes one frame that was never handed to the writer
// (a Send that timed out), so it cannot be replayed later.
func (l *link) dropFromReplay(seq uint64) {
	l.mu.Lock()
	for i := range l.replay {
		if l.replay[i].seq == seq {
			l.replay = append(l.replay[:i], l.replay[i+1:]...)
			break
		}
	}
	l.mu.Unlock()
}
