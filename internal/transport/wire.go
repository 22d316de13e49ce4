// Wire codec of the loopback TCP driver. Frames are hand-encoded with a
// fixed deterministic layout (no gob, no reflection) so that (a) the same
// payload always produces the same bytes — part of the cross-driver
// equivalence story — and (b) the decoder can be fuzz-hardened against
// arbitrary network input (FuzzFrameDecode).
//
// A frame on the wire is
//
//	uint32 BE length | 'h' 't' | version | frame type | body
//
// where length counts everything after the prefix (header + body) and is
// bounded by MaxFrameSize. The body layout per frame type:
//
//	step:     round u32 | count u32 | count × (from u32 | payload)
//	out:      flags u8 (bit0 has-payload, bit1 done) | [payload]
//	shutdown: empty
//
// and a payload is a flags byte naming the parts it carries (bit0 bid,
// bit1 upd, bit2 acks; at least one, no other bit) followed by each part
// present, in that order — ints as u32 BE, floats as IEEE-754 bits u64
// BE, slices as a u32 count plus elements:
//
//	bid:  slot | color | delta
//	upd:  slot | color | seq | covers
//	acks: count (≥ 1) × (slot | color | to | seq)
//
// A payload carrying both a bid and an upd must give both one (slot,
// color), since the payload keeps one. Every decode error is typed
// (ErrTruncated, ErrBadMagic, ...) and the decoder never over-reads or
// allocates more than the received byte count can justify.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"haste/internal/netsim"
)

// Version is the wire protocol version byte. A peer speaking a different
// version is rejected with ErrVersionSkew rather than misparsed.
const Version = 2

// MaxFrameSize bounds the declared frame length (header + body). It caps
// what a single length prefix can make the reader allocate; real sessions
// stay far below it (a full reliability-layer inbox is a few kilobytes).
const MaxFrameSize = 1 << 20

const (
	prefixSize = 4 // uint32 BE length
	headerSize = 4 // magic0 magic1 version type
	magic0     = 'h'
	magic1     = 't'
)

// Frame types.
const (
	frameStep     byte = 1 // coordinator → node: this round's inbox
	frameOut      byte = 2 // node → coordinator: Step's (payload, done)
	frameShutdown byte = 3 // coordinator → node: exit the serve loop
)

// Out frame flags.
const (
	outHasPayload byte = 1 << 0
	outDone       byte = 1 << 1
)

// Payload flags: the parts a payload carries.
const (
	partBid  byte = 1 << 0
	partUpd  byte = 1 << 1
	partAcks byte = 1 << 2
)

// Typed decode errors. Fuzzing asserts every rejection is one of these
// (or an io error from the reader) — never a panic.
var (
	ErrFrameTooLarge      = errors.New("transport: frame length exceeds MaxFrameSize")
	ErrBadMagic           = errors.New("transport: bad frame magic")
	ErrVersionSkew        = errors.New("transport: wire protocol version mismatch")
	ErrBadFrameType       = errors.New("transport: unknown frame type")
	ErrTruncated          = errors.New("transport: truncated frame body")
	ErrTrailingBytes      = errors.New("transport: trailing bytes after frame body")
	ErrMalformed          = errors.New("transport: malformed frame body")
	ErrUnsupportedPayload = errors.New("transport: payload type has no wire encoding")
)

// writer appends big-endian fields to a buffer, latching the first
// structural error (out-of-range int) so call sites stay linear.
type writer struct {
	b   []byte
	err error
}

func (w *writer) fail(err error) {
	if w.err == nil {
		w.err = err
	}
}

func (w *writer) u8(v byte) { w.b = append(w.b, v) }

func (w *writer) u32(v uint32) { w.b = binary.BigEndian.AppendUint32(w.b, v) }

func (w *writer) u64(v uint64) { w.b = binary.BigEndian.AppendUint64(w.b, v) }

// u32i encodes a non-negative int that must fit a u32 (slot, color and
// charger indices all do; a violation means a corrupted message, not a
// large instance).
func (w *writer) u32i(v int) {
	if v < 0 || int64(v) > math.MaxUint32 {
		w.fail(fmt.Errorf("%w: integer field %d outside uint32", ErrUnsupportedPayload, v))
	}
	w.u32(uint32(v))
}

// cursor reads big-endian fields from a frame body, latching the first
// error; every accessor returns the zero value once poisoned, so decode
// functions need no per-field error plumbing and can never over-read.
type cursor struct {
	b   []byte
	off int
	err error
}

func (c *cursor) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

func (c *cursor) u8() byte {
	if c.err != nil || c.off+1 > len(c.b) {
		c.fail(ErrTruncated)
		return 0
	}
	v := c.b[c.off]
	c.off++
	return v
}

func (c *cursor) u32() uint32 {
	if c.err != nil || c.off+4 > len(c.b) {
		c.fail(ErrTruncated)
		return 0
	}
	v := binary.BigEndian.Uint32(c.b[c.off:])
	c.off += 4
	return v
}

func (c *cursor) u64() uint64 {
	if c.err != nil || c.off+8 > len(c.b) {
		c.fail(ErrTruncated)
		return 0
	}
	v := binary.BigEndian.Uint64(c.b[c.off:])
	c.off += 8
	return v
}

func (c *cursor) remaining() int { return len(c.b) - c.off }

// count reads a u32 element count and validates it against the bytes
// actually present (elemSize each), so a hostile count can never drive a
// large allocation: the frame must carry the bytes it promises.
func (c *cursor) count(elemSize int) int {
	n := c.u32()
	if c.err != nil {
		return 0
	}
	if int64(n)*int64(elemSize) > int64(c.remaining()) {
		c.fail(fmt.Errorf("%w: count %d overruns %d remaining bytes", ErrMalformed, n, c.remaining()))
		return 0
	}
	return int(n)
}

// appendFrame wraps a body into a complete frame (prefix + header + body)
// appended to dst, so the caller writes it with a single Write and frames
// never interleave on a shared connection.
func appendFrame(dst []byte, typ byte, body []byte) ([]byte, error) {
	l := headerSize + len(body)
	if l > MaxFrameSize {
		return nil, ErrFrameTooLarge
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(l))
	dst = append(dst, magic0, magic1, Version, typ)
	return append(dst, body...), nil
}

// readFrame reads one frame, reusing *scratch across calls for the
// length prefix and then the frame, so a warm read allocates nothing. The
// returned body aliases *scratch and is valid until the next call. Errors
// are the typed codec errors above or the reader's own (io.EOF on a
// cleanly closed connection, io.ErrUnexpectedEOF on a mid-frame cut).
func readFrame(r io.Reader, scratch *[]byte) (typ byte, body []byte, err error) {
	if cap(*scratch) < prefixSize {
		*scratch = make([]byte, prefixSize)
	}
	pfx := (*scratch)[:prefixSize]
	if _, err := io.ReadFull(r, pfx); err != nil {
		return 0, nil, err
	}
	l := binary.BigEndian.Uint32(pfx)
	if l > MaxFrameSize {
		return 0, nil, ErrFrameTooLarge
	}
	if l < headerSize {
		return 0, nil, ErrTruncated
	}
	if cap(*scratch) < int(l) {
		*scratch = make([]byte, l)
	}
	buf := (*scratch)[:l]
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, nil, err
	}
	if buf[0] != magic0 || buf[1] != magic1 {
		return 0, nil, ErrBadMagic
	}
	if buf[2] != Version {
		return 0, nil, fmt.Errorf("%w: got %d, want %d", ErrVersionSkew, buf[2], Version)
	}
	typ = buf[3]
	if typ != frameStep && typ != frameOut && typ != frameShutdown {
		return 0, nil, fmt.Errorf("%w: %d", ErrBadFrameType, typ)
	}
	return typ, buf[headerSize:], nil
}

func appendBid(w *writer, p *netsim.Payload) {
	w.u32(p.Slot)
	w.u32(p.Color)
	w.u64(math.Float64bits(p.Delta))
}

func appendUpd(w *writer, p *netsim.Payload) {
	w.u32(p.Slot)
	w.u32(p.Color)
	w.u32(p.Seq)
	w.u32i(len(p.Covers))
	for _, t := range p.Covers {
		w.u32i(t)
	}
}

func appendAck(w *writer, a netsim.Ack) {
	w.u32(a.Slot)
	w.u32(a.Color)
	w.u32(a.To)
	w.u32(a.Seq)
}

// appendPayload encodes one payload; silence has no wire form and is
// ErrUnsupportedPayload.
func appendPayload(w *writer, p *netsim.Payload) {
	var flags byte
	if p.HasBid {
		flags |= partBid
	}
	if p.HasUpd {
		flags |= partUpd
	}
	if len(p.Acks) > 0 {
		flags |= partAcks
	}
	if flags == 0 {
		w.fail(fmt.Errorf("%w: silent payload", ErrUnsupportedPayload))
		return
	}
	w.u8(flags)
	if p.HasBid {
		appendBid(w, p)
	}
	if p.HasUpd {
		appendUpd(w, p)
	}
	if len(p.Acks) > 0 {
		w.u32i(len(p.Acks))
		for _, a := range p.Acks {
			appendAck(w, a)
		}
	}
}

func decodeBid(c *cursor, p *netsim.Payload) {
	p.Slot = c.u32()
	p.Color = c.u32()
	p.Delta = math.Float64frombits(c.u64())
}

func decodeUpd(c *cursor, p *netsim.Payload) {
	p.Slot = c.u32()
	p.Color = c.u32()
	p.Seq = c.u32()
	if n := c.count(4); n > 0 {
		p.Covers = make([]int, n)
		for i := range p.Covers {
			p.Covers[i] = int(c.u32())
		}
	}
}

func decodeAck(c *cursor) netsim.Ack {
	return netsim.Ack{Slot: c.u32(), Color: c.u32(), To: c.u32(), Seq: c.u32()}
}

// decodePayload decodes one payload at the cursor into p, overwriting
// all of it. Only an UPD's covers and the acks allocate.
func decodePayload(c *cursor, p *netsim.Payload) {
	*p = netsim.Payload{}
	flags := c.u8()
	if c.err != nil {
		return
	}
	if flags == 0 || flags&^(partBid|partUpd|partAcks) != 0 {
		c.fail(fmt.Errorf("%w: payload flags %#x", ErrMalformed, flags))
		return
	}
	p.HasBid, p.HasUpd = flags&partBid != 0, flags&partUpd != 0
	if p.HasBid {
		decodeBid(c, p)
	}
	if p.HasUpd {
		slot, color := p.Slot, p.Color
		decodeUpd(c, p)
		if p.HasBid && (p.Slot != slot || p.Color != color) {
			c.fail(fmt.Errorf("%w: bid and upd disagree on (slot, color)", ErrMalformed))
		}
	}
	if flags&partAcks != 0 {
		n := c.count(16)
		if c.err == nil && n == 0 {
			c.fail(fmt.Errorf("%w: acks part with no ack", ErrMalformed))
		}
		if n > 0 {
			p.Acks = make([]netsim.Ack, n)
			for i := range p.Acks {
				p.Acks[i] = decodeAck(c)
			}
		}
	}
}

// encodeStep appends a step frame body (round + inbox) to dst.
func encodeStep(dst []byte, round int, inbox []netsim.Message) ([]byte, error) {
	w := writer{b: dst}
	w.u32i(round)
	w.u32i(len(inbox))
	for i := range inbox {
		w.u32i(inbox[i].From)
		appendPayload(&w, inbox[i].Payload)
	}
	return w.b, w.err
}

// stepInbox is a decoded step frame's inbox: msgs[k].Payload points at
// payloads[k], the bank its payload was decoded into. decodeStep refills
// both in place, so a node server that decodes every round into one
// stepInbox allocates only for the UPD covers and acks it receives.
type stepInbox struct {
	msgs     []netsim.Message
	payloads []netsim.Payload
}

// decodeStep parses a step frame body into its round and in's messages,
// replacing what in held.
func decodeStep(body []byte, in *stepInbox) (round int, err error) {
	in.msgs = in.msgs[:0]
	c := cursor{b: body}
	round = int(c.u32())
	// A message is at least its 4-byte sender, the 1-byte payload flags
	// and its smallest part (the 16-byte bid or count-only upd), so 21
	// bytes/message is a safe floor for the count guard.
	n := c.count(21)
	// The bank is sized before any message points into it.
	in.payloads = slices.Grow(in.payloads[:0], n)[:n]
	for k := 0; k < n; k++ {
		from := int(c.u32())
		decodePayload(&c, &in.payloads[k])
		if c.err != nil {
			in.msgs = in.msgs[:0]
			return 0, c.err
		}
		in.msgs = append(in.msgs, netsim.Message{From: from, Payload: &in.payloads[k]})
	}
	if c.err != nil {
		return 0, c.err
	}
	if c.remaining() != 0 {
		in.msgs = in.msgs[:0]
		return 0, ErrTrailingBytes
	}
	return round, nil
}

// encodeOut appends an out frame body (Step's result) to dst.
func encodeOut(dst []byte, out *netsim.Payload, done bool) ([]byte, error) {
	w := writer{b: dst}
	var flags byte
	if !out.Silent() {
		flags |= outHasPayload
	}
	if done {
		flags |= outDone
	}
	w.u8(flags)
	if flags&outHasPayload != 0 {
		appendPayload(&w, out)
	}
	return w.b, w.err
}

// decodeOut parses an out frame body back into Step's result: it
// decodes the payload into out, which must be silent and stays so when
// the frame carries none, and returns the done flag.
func decodeOut(body []byte, out *netsim.Payload) (done bool, err error) {
	c := cursor{b: body}
	flags := c.u8()
	if c.err == nil && flags&^(outHasPayload|outDone) != 0 {
		c.fail(fmt.Errorf("%w: unknown out flags %#x", ErrMalformed, flags))
	}
	if c.err == nil && flags&outHasPayload != 0 {
		decodePayload(&c, out)
	}
	if c.err != nil {
		return false, c.err
	}
	if c.remaining() != 0 {
		return false, ErrTrailingBytes
	}
	return flags&outDone != 0, nil
}
