package main

import (
	"context"
	"fmt"
	"net"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ship"
	"repro/internal/world"
)

// balancedShares splits w's groups between two PoPs by traffic weight,
// heaviest first, each to the lighter share. seggen.OwnedGroups shards by
// PoP-name hash, which leaves some seeds' shares tens of percent apart;
// the merged spool is the same for any split.
func balancedShares(w *world.World) [2][]int {
	order := make([]int, len(w.Groups))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return w.Groups[order[a]].Weight > w.Groups[order[b]].Weight })
	var shares [2][]int
	var load [2]float64
	for _, gi := range order {
		p := 0
		if load[1] < load[0] {
			p = 1
		}
		shares[p] = append(shares[p], gi)
		load[p] += w.Groups[gi].Weight
	}
	for p := range shares {
		sort.Ints(shares[p])
	}
	return shares
}

// shipAndMerge serves one ship.Merger on a unix socket under base and
// ships the PoP datasets in pops into out.spool, one after the other,
// recording the merger's stats and the shippers' retries in out. With a
// tracer it also records each shipment's ack time (from its frame's
// write to its ack) in out.ackMs, and each merger commit (from its
// frame's last byte read to the commit's return) as a merge.commit span
// under parent.
func shipAndMerge(ctx context.Context, tr *tracer, parent int, base string, pops [2]string, out *chainOut) error {
	sock := filepath.Join(base, "m.sock")
	mopt := ship.MergerOptions{SpoolDir: out.spool, ExpectPoPs: len(pops)}
	var (
		mu       sync.Mutex
		sent     = map[int]time.Time{}
		lastRead atomic.Int64
	)
	if tr != nil {
		mopt.OnCommit = func() {
			tr.record("merge.commit", parent, time.Unix(0, lastRead.Load()), time.Now(), 1)
		}
	}
	m, err := ship.NewMerger(mopt)
	if err != nil {
		return err
	}
	l, err := net.Listen("unix", sock)
	if err != nil {
		return err
	}
	if tr != nil {
		l = &readListener{Listener: l, read: func() { lastRead.Store(time.Now().UnixNano()) }}
	}
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- m.Serve(sctx, l) }()

	for p := range pops {
		opt := ship.ShipperOptions{Dir: pops[p], Addr: sock, Network: "unix", PoP: p, Pops: len(pops)}
		if tr != nil {
			opt.Dial = func(network, addr string) (net.Conn, error) {
				c, err := net.Dial(network, addr)
				if err != nil {
					return nil, err
				}
				return &sendConn{Conn: c, sent: func(id int) {
					mu.Lock()
					sent[id] = time.Now()
					mu.Unlock()
				}}, nil
			}
			opt.OnAck = func(id int, _ bool) {
				now := time.Now()
				mu.Lock()
				if t, ok := sent[id]; ok {
					out.ackMs = append(out.ackMs, ms(now.Sub(t)))
					delete(sent, id)
				}
				mu.Unlock()
			}
		}
		st, err := ship.Ship(ctx, opt)
		out.retries += st.Retries
		if err != nil {
			cancel()
			<-served
			return fmt.Errorf("ship PoP %d: %w", p, err)
		}
	}
	if err := <-served; err != nil {
		return fmt.Errorf("merger: %w", err)
	}
	out.merge = m.Stats()
	return nil // closing the listener unlinked the socket
}

// sendConn reports the segment ID of every ship frame written through
// it. The shipper writes each frame with one Write call.
type sendConn struct {
	net.Conn
	sent func(id int)
}

func (c *sendConn) Write(b []byte) (int, error) {
	const hdr = 9 // magic, type, length
	if len(b) > hdr+4 && b[4] == ship.FrameShip {
		if h, _, err := ship.DecodeShipPayload(b[hdr : len(b)-4]); err == nil {
			c.sent(h.SegID)
		}
	}
	return c.Conn.Write(b)
}

// readListener marks the time of every read on accepted connections;
// the merger reads a frame to its last byte, then commits it.
type readListener struct {
	net.Listener
	read func()
}

func (l *readListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &readConn{Conn: c, read: l.read}, nil
}

type readConn struct {
	net.Conn
	read func()
}

func (c *readConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.read()
	return n, err
}
