package transport

import (
	"fmt"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"govpic/internal/mp"
	"govpic/internal/push"
)

// fastOpts shrinks every timeout so failure-detection tests finish in
// well under a second of detection latency.
func fastOpts() Options {
	return Options{
		HeartbeatInterval: 20 * time.Millisecond,
		PeerTimeout:       250 * time.Millisecond,
		DialTimeout:       500 * time.Millisecond,
		ConnectAttempts:   4,
		ReconnectBackoff:  20 * time.Millisecond,
		SendTimeout:       3 * time.Second,
		RendezvousTimeout: 15 * time.Second,
	}
}

// freeAddr reserves a localhost port by binding and releasing it.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// connectWorld brings up a size-rank TCP world on localhost and returns
// the transports indexed by rank.
func connectWorld(t *testing.T, size int, opts Options) []*TCP {
	t.Helper()
	join := freeAddr(t)
	ts := make([]*TCP, size)
	errs := make([]error, size)
	var wg sync.WaitGroup
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			ts[rank], errs[rank] = Connect(rank, size, join, "127.0.0.1:0", opts)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d connect: %v", r, err)
		}
	}
	t.Cleanup(func() {
		for _, tr := range ts {
			if tr != nil {
				tr.Close()
			}
		}
	})
	return ts
}

func TestTCPRingExchange(t *testing.T) {
	const size = 4
	ts := connectWorld(t, size, fastOpts())
	var wg sync.WaitGroup
	errs := make(chan error, size)
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			tr := ts[rank]
			next, prev := (rank+1)%size, (rank+size-1)%size
			want := []float32{float32(prev), float32(math.NaN()), -0}
			if err := tr.Send(next, 7, []float32{float32(rank), float32(math.NaN()), -0}); err != nil {
				errs <- fmt.Errorf("rank %d send: %w", rank, err)
				return
			}
			got, err := tr.Recv(prev, 7)
			if err != nil {
				errs <- fmt.Errorf("rank %d recv: %w", rank, err)
				return
			}
			if !bitsEqual32(got.([]float32), want) {
				errs <- fmt.Errorf("rank %d: got %v want %v", rank, got, want)
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestTCPParticleBatchAndCollectives(t *testing.T) {
	const size = 3
	ts := connectWorld(t, size, fastOpts())
	var wg sync.WaitGroup
	sums := make([]float64, size)
	counts := make([]int64, size)
	errs := make(chan error, size)
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			tr := ts[rank]
			// Rank 0 scatters particle batches; everyone returns the count.
			if rank == 0 {
				for dst := 1; dst < size; dst++ {
					batch := make(push.OutgoingBatch, dst*5)
					for i := range batch {
						batch[i].P.Voxel = int32(100*dst + i)
						batch[i].DispX = float32(i)
					}
					if err := tr.Send(dst, 3, batch); err != nil {
						errs <- err
						return
					}
				}
			} else {
				got, err := tr.Recv(0, 3)
				if err != nil {
					errs <- err
					return
				}
				batch := got.(push.OutgoingBatch)
				if len(batch) != rank*5 || batch[len(batch)-1].P.Voxel != int32(100*rank+rank*5-1) {
					errs <- fmt.Errorf("rank %d: bad batch %d", rank, len(batch))
					return
				}
			}
			if err := tr.Barrier(); err != nil {
				errs <- err
				return
			}
			s, err := tr.Allreduce(float64(rank)+0.25, func(xs []any) any {
				var acc float64
				for _, v := range xs {
					acc += v.(float64)
				}
				return acc
			})
			if err != nil {
				errs <- err
				return
			}
			sums[rank] = s.(float64)
			n, err := tr.Allreduce(int64(rank), func(xs []any) any {
				var acc int64
				for _, v := range xs {
					acc += v.(int64)
				}
				return acc
			})
			if err != nil {
				errs <- err
				return
			}
			counts[rank] = n.(int64)
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	wantSum := 0.25 + 1.25 + 2.25
	for r := 0; r < size; r++ {
		if sums[r] != wantSum || counts[r] != 3 {
			t.Fatalf("rank %d: allreduce got (%v, %d), want (%v, 3)", r, sums[r], counts[r], wantSum)
		}
	}
	// Traffic must show up in the stats of every endpoint.
	for r, tr := range ts {
		links := tr.Stats().Snapshot()
		if len(links) == 0 {
			t.Fatalf("rank %d: no link stats recorded", r)
		}
	}
}

func TestTCPTagMismatchTypedError(t *testing.T) {
	ts := connectWorld(t, 2, fastOpts())
	done := make(chan error, 1)
	go func() { done <- ts[0].Send(1, 5, int64(1)) }()
	_, err := ts[1].Recv(0, 6)
	if serr := <-done; serr != nil {
		t.Fatal(serr)
	}
	var tm *mp.TagMismatchError
	if tme, ok := err.(*mp.TagMismatchError); !ok {
		t.Fatalf("want *mp.TagMismatchError, got %T: %v", err, err)
	} else {
		tm = tme
	}
	if tm.Rank != 1 || tm.Src != 0 || tm.Want != 6 || tm.Got != 5 {
		t.Fatalf("wrong fields: %+v", tm)
	}
}

// TestTCPReconnectReplay severs the live connection mid-stream and
// checks that sequence-numbered replay delivers every message exactly
// once, in order, after the automatic reconnect.
func TestTCPReconnectReplay(t *testing.T) {
	ts := connectWorld(t, 2, fastOpts())
	const n = 40
	recvDone := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			got, err := ts[1].Recv(0, 9)
			if err != nil {
				recvDone <- fmt.Errorf("recv %d: %w", i, err)
				return
			}
			if got.(int64) != int64(i) {
				recvDone <- fmt.Errorf("recv %d: got %v", i, got)
				return
			}
		}
		recvDone <- nil
	}()
	l := ts[0].links[1]
	for i := 0; i < n; i++ {
		if i == n/2 { // yank the wire mid-stream
			l.mu.Lock()
			if l.curConn != nil {
				l.curConn.Close()
			}
			l.mu.Unlock()
		}
		if err := ts[0].Send(1, 9, int64(i)); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	select {
	case err := <-recvDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("receiver hung after reconnect")
	}
}

// TestTCPPeerDeathDetected kills one rank abruptly (no goodbye, sockets
// torn down, listener gone) and checks the survivor's next blocking
// operation fails with an attributed *mp.PeerDeadError — promptly, not
// after hanging.
func TestTCPPeerDeathDetected(t *testing.T) {
	ts := connectWorld(t, 2, fastOpts())
	ts[1].kill()
	start := time.Now()
	_, err := ts[0].Recv(1, 1)
	detect := time.Since(start)
	pd, ok := err.(*mp.PeerDeadError)
	if !ok {
		t.Fatalf("want *mp.PeerDeadError, got %T: %v", err, err)
	}
	if pd.Rank != 0 || pd.Peer != 1 {
		t.Fatalf("wrong attribution: %+v", pd)
	}
	if ce, isCommErr := mp.AsCommError(pd); !isCommErr || ce == nil {
		t.Fatal("PeerDeadError must satisfy mp.CommError")
	}
	// 4 attempts × (dial fail + backoff) with fastOpts is well under 5s.
	if detect > 10*time.Second {
		t.Fatalf("detection took %v", detect)
	}
	// Sends must fail the same way, immediately now the link is dead.
	if err := ts[0].Send(1, 1, int64(0)); err == nil {
		t.Fatal("send to dead peer should fail")
	}
}

// TestTCPSizeOne covers the degenerate single-rank world: no listener,
// self sends, trivial collectives.
func TestTCPSizeOne(t *testing.T) {
	tr, err := Connect(0, 1, "", "", fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if err := tr.Send(0, 2, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	got, err := tr.Recv(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if v := got.([]float64); len(v) != 2 || v[0] != 1 {
		t.Fatalf("self round trip got %v", v)
	}
	if err := tr.Barrier(); err != nil {
		t.Fatal(err)
	}
	out, err := tr.Allreduce(int64(5), func(xs []any) any { return xs[0] })
	if err != nil || out.(int64) != 5 {
		t.Fatalf("allreduce: %v %v", out, err)
	}
}

// TestTCPSendThenCloseDelivers: messages queued by Send must reach the
// peer even when Close follows at once — the goodbye may not overtake
// data frames still waiting in the link's send queue. Repeated because
// the writer picks among ready channels at random.
func TestTCPSendThenCloseDelivers(t *testing.T) {
	const rounds, msgs = 20, 8
	for r := 0; r < rounds; r++ {
		ts := connectWorld(t, 2, fastOpts())
		for i := 0; i < msgs; i++ {
			if err := ts[0].Send(1, 5, []float64{float64(i)}); err != nil {
				t.Fatalf("round %d send %d: %v", r, i, err)
			}
		}
		ts[0].Close()
		for i := 0; i < msgs; i++ {
			got, err := ts[1].Recv(0, 5)
			if err != nil {
				t.Fatalf("round %d: message %d of %d lost after the sender closed: %v", r, i, msgs, err)
			}
			if v := got.([]float64); len(v) != 1 || v[0] != float64(i) {
				t.Fatalf("round %d: message %d = %v", r, i, v)
			}
		}
		ts[1].Close()
	}
}
