// Package transport is the real-socket execution substrate for the online
// negotiation: a netsim.Driver that carries every protocol message over
// loopback TCP connections instead of in-memory channels. Each node gets
// its own connection and serve goroutine — a process-shaped deployment of
// the paper's distributed Algorithm 3 — while the coordinator runs the
// shared netsim round loop (netsim.Rounds) and exchanges one framed
// request/response pair per stepped node per round (the round barrier).
// The loop leaves down nodes and done nodes with nothing to read out of
// a round's active list, so a round's frames go only to the chargers
// still negotiating and to those a message reaches; each response's done
// bit feeds the next round's active list. The coordinator steps a round
// from its own goroutine: it writes the request of every node on the
// active list, then reads the responses in node order, decoding each
// into the node's outbox slot, while the nodes' serve goroutines step in
// parallel. A node writes only after it has read its whole request, so
// neither side can block the other. A serve goroutine decodes each
// request's payloads into one bank it reuses, and its messages point into
// that bank, as the round loop's do into its outboxes.
//
// # Determinism and equivalence
//
// The engine reuses the netsim round loop verbatim: crash draws, delivery
// bookkeeping and all failure-injection RNG draws happen in that
// single-threaded loop, in the same order as the in-memory drivers; this
// engine only supplies the stepping fan (serialize inbox → socket →
// remote Step → socket → deserialize output). Failure injection therefore
// acts at the coordinator's delivery stage and the wire carries exactly
// the surviving deliveries, so committed schedules, utilities, switch
// counts and Stats are bit-identical to netsim — the contract the
// cross-driver differential suite (difftest.DriverSweep) enforces,
// including the exact message balance
//
//	Messages == Attempted - Dropped - CrashLost - Expired + Duplicated.
//
// # Lifecycle
//
// New dials one loopback connection per node up front, each read through
// a bufio.Reader at both ends, and closes each node's listener as soon as
// it has accepted that connection, so no later dial reaches a node; Run
// installs the session's nodes, drives rounds and uninstalls them; Reset
// points the engine at another topology over the same nodes and keeps
// every connection, so one engine serves every negotiation of an online
// run; Close (idempotent) sends best-effort shutdown frames, tears down
// every connection, and waits for all goroutines to exit — the
// shutdown-path tests assert zero leaked goroutines. NewContext additionally aborts a running
// session when the context is cancelled.
package transport

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"haste/internal/netsim"
)

// ErrClosed is returned by Run after Close.
var ErrClosed = errors.New("transport: engine is closed")

// Engine is the loopback TCP netsim.Driver. Create with New or
// NewContext; it is not safe for concurrent Runs (sessions are
// sequential, as in the in-memory engine), but Close may be called from
// another goroutine to abort a running session.
type Engine struct {
	neighbors [][]int
	opt       netsim.Options

	links   []*link       // coordinator side: one dialed conn per node
	servers []*nodeServer // node side: listener + accepted conn + goroutine
	errs    []error       // per-active-node scratch for the stepping fan
	rounds  netsim.Rounds // round-loop buffers, reused by every session

	ctx       context.Context
	stop      chan struct{} // closed by Close; parks the context watcher
	wg        sync.WaitGroup
	closeOnce sync.Once
	closed    atomic.Bool
}

// link is the coordinator's end of one node's connection, with reusable
// encode/decode buffers (the round loop is single-threaded).
type link struct {
	conn net.Conn
	r    *bufio.Reader // buffered read side of conn
	body []byte        // step frame body assembly
	out  []byte        // full outgoing frame assembly
	in   []byte        // response frame scratch
}

// nodeServer is the remote end: it owns node i's accepted connection and
// runs the serve loop. The installed node is guarded by mu so
// installation in Run happens-before the serve goroutine steps it.
type nodeServer struct {
	idx  int
	conn net.Conn

	mu   sync.Mutex
	node netsim.Node
}

// New builds an engine over the topology: one established loopback TCP
// connection per node, whose listener is closed once it has accepted it.
// The returned engine holds sockets and goroutines — Close it.
func New(neighbors [][]int, opt netsim.Options) (*Engine, error) {
	return NewContext(context.Background(), neighbors, opt)
}

// NewContext is New with a cancellation context: when ctx is cancelled,
// every connection is torn down, which aborts an in-flight Run with an
// error wrapping ctx.Err().
func NewContext(ctx context.Context, neighbors [][]int, opt netsim.Options) (*Engine, error) {
	if err := netsim.ValidateTopology(neighbors); err != nil {
		return nil, err
	}
	n := len(neighbors)
	e := &Engine{
		neighbors: neighbors,
		opt:       opt,
		links:     make([]*link, n),
		servers:   make([]*nodeServer, n),
		errs:      make([]error, n),
		ctx:       ctx,
		stop:      make(chan struct{}),
	}
	for i := 0; i < n; i++ {
		s := &nodeServer{idx: i}
		e.servers[i] = s
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			e.Close()
			return nil, fmt.Errorf("transport: listen node %d: %w", i, err)
		}
		type accepted struct {
			conn net.Conn
			err  error
		}
		ch := make(chan accepted, 1)
		go func() {
			c, err := ln.Accept()
			ch <- accepted{c, err}
		}()
		cc, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			ln.Close() // fails the pending Accept
			e.Close()
			return nil, fmt.Errorf("transport: dial node %d: %w", i, err)
		}
		e.links[i] = &link{conn: cc, r: bufio.NewReader(cc)}
		a := <-ch
		// The node serves this one connection: nothing may handshake
		// into its port afterwards.
		ln.Close()
		if a.err != nil {
			e.Close()
			return nil, fmt.Errorf("transport: accept node %d: %w", i, a.err)
		}
		s.conn = a.conn
	}
	for _, s := range e.servers {
		e.wg.Add(1)
		go e.serve(s)
	}
	if ctx.Done() != nil {
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			select {
			case <-ctx.Done():
				e.teardown()
			case <-e.stop:
			}
		}()
	}
	return e, nil
}

// Factory is the netsim.Factory of the loopback TCP engine: pass it as
// online.Options.Driver (the `--transport tcp` flag of the CLIs does) to
// run every negotiation over real sockets.
func Factory(neighbors [][]int, opt netsim.Options) (netsim.Driver, error) {
	return New(neighbors, opt)
}

// Run implements netsim.Driver: install the session's nodes into the
// serve goroutines, drive the shared round loop with the socket stepping
// fan, then uninstall them, so an idle engine pins no agent. Like the
// in-memory engine it may be called once per session until Close.
func (e *Engine) Run(nodes []netsim.Node) (netsim.Stats, error) {
	if len(nodes) != len(e.neighbors) {
		return netsim.Stats{}, fmt.Errorf("transport: %w: %d nodes for a %d-node topology",
			netsim.ErrNodeCount, len(nodes), len(e.neighbors))
	}
	if e.closed.Load() {
		return netsim.Stats{}, ErrClosed
	}
	e.install(nodes)
	st, err := e.rounds.Run(e.neighbors, e.opt, e.step)
	e.install(nil)
	if err != nil && !errors.Is(err, netsim.ErrNoQuiescence) {
		// A link error during teardown is a symptom; report the cause.
		if cerr := e.ctx.Err(); cerr != nil {
			err = fmt.Errorf("transport: session aborted: %w", cerr)
		} else if e.closed.Load() {
			err = fmt.Errorf("%w: %v", ErrClosed, err)
		}
	}
	return st, err
}

// install hands node i of nodes to serve goroutine i; nil uninstalls all.
func (e *Engine) install(nodes []netsim.Node) {
	for i, s := range e.servers {
		s.mu.Lock()
		s.node = nil
		if nodes != nil {
			s.node = nodes[i]
		}
		s.mu.Unlock()
	}
}

// Reset implements netsim.Driver: later sessions run over neighbors with
// opt, on the same connections. The node count must stay the same.
func (e *Engine) Reset(neighbors [][]int, opt netsim.Options) error {
	if e.closed.Load() {
		return ErrClosed
	}
	if len(neighbors) != len(e.neighbors) {
		return fmt.Errorf("transport: %w: %d nodes, the engine has %d",
			netsim.ErrNodeCount, len(neighbors), len(e.neighbors))
	}
	if err := netsim.ValidateTopology(neighbors); err != nil {
		return err
	}
	e.neighbors, e.opt = neighbors, opt
	return nil
}

// step is the socket stepping fan, run on the coordinator's goroutine:
// it writes the step frame of every node on the active list, in node
// order, then reads the responses in node order into the nodes' outbox
// slots, while the serve goroutines step the nodes in parallel. Each
// inbox is encoded before step returns, as the StepFunc contract
// requires. Nodes off the list get no frame — the serve loop of a down
// node never hears about the round, exactly like a crashed process, and
// that of an idle done node has nothing to do. A node whose request
// could not be sent is not read from; the errors are joined in node order.
func (e *Engine) step(round int, active []int, inboxes [][]netsim.Message, outs []netsim.Payload, done []bool) error {
	errs := e.errs[:len(active)]
	for k, i := range active {
		errs[k] = e.send(i, round, inboxes[i])
	}
	for k, i := range active {
		if errs[k] == nil {
			done[i], errs[k] = e.receive(i, &outs[i])
		}
	}
	return errors.Join(errs...)
}

// send writes node i its inbox for this round as one step frame. The
// buffers are reused across rounds.
func (e *Engine) send(i, round int, inbox []netsim.Message) error {
	l := e.links[i]
	body, err := encodeStep(l.body[:0], round, inbox)
	if err != nil {
		return fmt.Errorf("transport: node %d: %w", i, err)
	}
	l.body = body
	frame, err := appendFrame(l.out[:0], frameStep, body)
	if err != nil {
		return fmt.Errorf("transport: node %d: %w", i, err)
	}
	l.out = frame
	if _, err := l.conn.Write(frame); err != nil {
		return fmt.Errorf("transport: node %d send: %w", i, err)
	}
	return nil
}

// receive reads back node i's Step output for this round: its payload,
// decoded into out, and whether it is done.
func (e *Engine) receive(i int, out *netsim.Payload) (bool, error) {
	l := e.links[i]
	typ, resp, err := readFrame(l.r, &l.in)
	if err != nil {
		return false, fmt.Errorf("transport: node %d recv: %w", i, err)
	}
	if typ != frameOut {
		return false, fmt.Errorf("transport: node %d: unexpected frame type %d in response", i, typ)
	}
	done, err := decodeOut(resp, out)
	if err != nil {
		return false, fmt.Errorf("transport: node %d: %w", i, err)
	}
	return done, nil
}

// serve is node i's process: a loop reading step frames, stepping the
// installed node, and writing the result back. It exits on a shutdown
// frame, any read/write error (connection torn down), a malformed frame
// or a Step result the codec cannot encode, and closes its connection as
// it goes — the coordinator's read of node i then fails and aborts the
// session; the engine never kills the whole process over one bad peer.
func (e *Engine) serve(s *nodeServer) {
	defer e.wg.Done()
	defer s.conn.Close()
	r := bufio.NewReader(s.conn)
	var scratch, body, frame []byte
	var inbox stepInbox    // reused by every round's decodeStep
	var out netsim.Payload // Step's outbox, cleared each round: one escapes once, not per step
	for {
		typ, req, err := readFrame(r, &scratch)
		if err != nil {
			return
		}
		switch typ {
		case frameStep:
			if _, err = decodeStep(req, &inbox); err != nil {
				return
			}
			s.mu.Lock()
			node := s.node
			s.mu.Unlock()
			out = netsim.Payload{}
			done := false
			if node != nil {
				done = node.Step(inbox.msgs, &out)
			}
			if body, err = encodeOut(body[:0], &out, done); err != nil {
				return
			}
			if frame, err = appendFrame(frame[:0], frameOut, body); err != nil {
				return
			}
			if _, err := s.conn.Write(frame); err != nil {
				return
			}
		case frameShutdown:
			return
		default:
			return
		}
	}
}

// teardown closes every connection, unblocking all reads.
func (e *Engine) teardown() {
	for _, l := range e.links {
		if l != nil && l.conn != nil {
			l.conn.Close()
		}
	}
	for _, s := range e.servers {
		if s != nil && s.conn != nil {
			s.conn.Close()
		}
	}
}

// Close implements netsim.Driver: send each node a best-effort shutdown
// frame (a failed write just means that link is already dead), tear down
// every socket, and wait for all goroutines to exit. Idempotent and safe
// to call concurrently with a running session, which it aborts.
func (e *Engine) Close() error {
	e.closeOnce.Do(func() {
		e.closed.Store(true)
		close(e.stop)
		for _, l := range e.links {
			if l == nil || l.conn == nil {
				continue
			}
			if f, err := appendFrame(nil, frameShutdown, nil); err == nil {
				l.conn.Write(f)
			}
		}
		e.teardown()
		e.wg.Wait()
	})
	return nil
}
