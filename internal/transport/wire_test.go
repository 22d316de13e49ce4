package transport

import (
	"bufio"
	"bytes"
	"errors"
	"flag"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"testing"

	"haste/internal/netsim"
)

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

var updateCorpus = flag.Bool("update-corpus", false,
	"regenerate the checked-in fuzz regression corpus under testdata/fuzz/FuzzFrameDecode")

// samplePayloads covers every part mix the agents send (a bid, an UPD,
// a bid or an UPD with acks, acks alone) plus a bid and an UPD together,
// and the edge shapes: NaN and negative-zero floats (bitwise round-trip)
// and empty and non-empty covers.
func samplePayloads() []netsim.Payload {
	covers := []int{1, 5, 9}
	acks := []netsim.Ack{{Slot: 1, To: 2, Seq: 3}, {Slot: 1, Color: 1, To: 0, Seq: 8}}
	return []netsim.Payload{
		{HasBid: true, Slot: 3, Color: 1, Delta: 0.125},
		{HasBid: true, Slot: 0, Color: 0, Delta: math.NaN()},
		{HasBid: true, Slot: 1, Color: 2, Delta: math.Copysign(0, -1)},
		{HasUpd: true, Slot: 2, Color: 0, Seq: 7, Covers: covers},
		{HasUpd: true, Slot: 0, Color: 3, Seq: 1},
		{HasBid: true, Slot: 3, Color: 1, Delta: 0.125, Acks: acks[:1]},
		{HasUpd: true, Slot: 2, Seq: 7, Covers: covers, Acks: acks},
		{Acks: []netsim.Ack{{Slot: 4, Color: 1, To: 6, Seq: 9}}},
		{HasBid: true, HasUpd: true, Slot: 2, Delta: 0.125, Seq: 7, Covers: covers,
			Acks: []netsim.Ack{{To: 4, Seq: 2}}},
	}
}

// payloadEqual compares payloads with float64 fields bit for bit (NaN
// included) — the equivalence contract is bitwise, not semantic.
func payloadEqual(a, b *netsim.Payload) bool {
	ab, errA := encodeOut(nil, a, false)
	bb, errB := encodeOut(nil, b, false)
	return errA == nil && errB == nil && bytes.Equal(ab, bb)
}

func TestStepFrameRoundTrip(t *testing.T) {
	var inbox []netsim.Message
	for i, p := range samplePayloads() {
		inbox = append(inbox, netsim.Message{From: i, Payload: &p})
	}
	for _, msgs := range [][]netsim.Message{nil, inbox[:1], inbox} {
		body, err := encodeStep(nil, 41, msgs)
		if err != nil {
			t.Fatalf("encodeStep: %v", err)
		}
		frame, err := appendFrame(nil, frameStep, body)
		if err != nil {
			t.Fatalf("appendFrame: %v", err)
		}
		var scratch []byte
		typ, got, err := readFrame(bytes.NewReader(frame), &scratch)
		if err != nil || typ != frameStep {
			t.Fatalf("readFrame: typ=%d err=%v", typ, err)
		}
		var in stepInbox
		round, err := decodeStep(got, &in)
		if err != nil {
			t.Fatalf("decodeStep: %v", err)
		}
		if round != 41 {
			t.Errorf("round = %d, want 41", round)
		}
		decoded := in.msgs
		if len(decoded) != len(msgs) {
			t.Fatalf("decoded %d messages, want %d", len(decoded), len(msgs))
		}
		for i := range msgs {
			if decoded[i].From != msgs[i].From || !payloadEqual(decoded[i].Payload, msgs[i].Payload) {
				t.Errorf("message %d does not round-trip: %#v != %#v", i, *decoded[i].Payload, *msgs[i].Payload)
			}
		}
	}
}

func TestOutFrameRoundTrip(t *testing.T) {
	cases := append(samplePayloads(), netsim.Payload{})
	for _, done := range []bool{false, true} {
		for i, p := range cases {
			body, err := encodeOut(nil, &p, done)
			if err != nil {
				t.Fatalf("case %d: encodeOut: %v", i, err)
			}
			var got netsim.Payload
			gotDone, err := decodeOut(body, &got)
			if err != nil {
				t.Fatalf("case %d: decodeOut: %v", i, err)
			}
			if gotDone != done {
				t.Errorf("case %d: done = %v, want %v", i, gotDone, done)
			}
			silent := p.Silent()
			if silent != got.Silent() || (!silent && !payloadEqual(&got, &p)) {
				t.Errorf("case %d: payload does not round-trip: %#v != %#v", i, got, p)
			}
		}
	}
}

// With warm buffers the codec allocates nothing but each decoded UPD's
// covers: encoding a step or an out frame and reading a frame into a
// grown scratch allocate 0, and decoding a step into a reused inbox and
// payload bank allocates once per UPD it carries.
func TestCodecAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts need a non-race build")
	}
	var bids, mixed []netsim.Message
	for i := 0; i < 8; i++ {
		bids = append(bids, netsim.Message{From: i, Payload: &netsim.Payload{HasBid: true, Slot: 3, Color: 1, Delta: float64(i)}})
	}
	mixed = append(mixed, bids...)
	for i := 0; i < 3; i++ {
		mixed = append(mixed, netsim.Message{From: 8 + i, Payload: &netsim.Payload{
			HasUpd: true, Slot: 3, Color: 1, Seq: uint32(i), Covers: []int{4, 8, 15}}})
	}
	var body []byte
	var inbox stepInbox
	var err error
	for _, c := range []struct {
		name   string
		msgs   []netsim.Message
		allocs float64
	}{{"bid-only", bids, 0}, {"three upds", mixed, 3}} {
		encode := func() { body, err = encodeStep(body[:0], 7, c.msgs) }
		decode := func() { _, err = decodeStep(body, &inbox) }
		encode()
		decode()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := testing.AllocsPerRun(100, encode); got != 0 {
			t.Errorf("%s: encodeStep allocates %v times, want 0", c.name, got)
		}
		if got := testing.AllocsPerRun(100, decode); got != c.allocs {
			t.Errorf("%s: decodeStep allocates %v times, want %v", c.name, got, c.allocs)
		}
		if err != nil || len(inbox.msgs) != len(c.msgs) || !payloadEqual(inbox.msgs[len(inbox.msgs)-1].Payload, c.msgs[len(c.msgs)-1].Payload) {
			t.Errorf("%s: decoded %d messages (%v), want %d", c.name, len(inbox.msgs), err, len(c.msgs))
		}
	}
	for i, p := range samplePayloads() {
		encode := func() { body, err = encodeOut(body[:0], &p, true) }
		encode()
		if got := testing.AllocsPerRun(100, encode); got != 0 || err != nil {
			t.Errorf("case %d: encodeOut allocates %v times (%v), want 0", i, got, err)
		}
	}
	// A scratch grown by an earlier frame reads the next one, length
	// prefix included, without allocating.
	frame, err := appendFrame(nil, frameStep, body)
	if err != nil {
		t.Fatal(err)
	}
	src := bytes.NewReader(frame)
	br := bufio.NewReader(src)
	var scratch []byte
	read := func() {
		src.Reset(frame)
		br.Reset(src)
		_, _, err = readFrame(br, &scratch)
	}
	read()
	if got := testing.AllocsPerRun(100, read); got != 0 || err != nil {
		t.Errorf("readFrame allocates %v times (%v), want 0", got, err)
	}
}

// The buffered read side splits a byte stream back into frames however
// the writes cut it: two frames sent in one Write, then one frame sent a
// byte per Write, decode back to back through one bufio.Reader.
func TestReadFrameAcrossWriteBoundaries(t *testing.T) {
	var frames [][]byte
	for _, p := range samplePayloads()[3:6] {
		body, err := encodeOut(nil, &p, true)
		if err != nil {
			t.Fatal(err)
		}
		f, err := appendFrame(nil, frameOut, body)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, f)
	}
	client, server := net.Pipe()
	defer server.Close()
	go func() {
		defer client.Close()
		if _, err := client.Write(append(slices.Clone(frames[0]), frames[1]...)); err != nil {
			return
		}
		for _, b := range frames[2] {
			if _, err := client.Write([]byte{b}); err != nil {
				return
			}
		}
	}()
	r := bufio.NewReader(server)
	var scratch []byte
	for i, f := range frames {
		typ, body, err := readFrame(r, &scratch)
		if err != nil || typ != frameOut {
			t.Fatalf("frame %d: typ %d, err %v", i, typ, err)
		}
		if !bytes.Equal(body, f[prefixSize+headerSize:]) {
			t.Errorf("frame %d: body %x, want %x", i, body, f[prefixSize+headerSize:])
		}
	}
	if _, _, err := readFrame(r, &scratch); err != io.EOF {
		t.Errorf("after the last frame: err = %v, want io.EOF", err)
	}
}

func TestEncodeRejectsUnsupportedPayloads(t *testing.T) {
	silent := []netsim.Message{{From: 1, Payload: &netsim.Payload{}}}
	if _, err := encodeStep(nil, 2, silent); !errors.Is(err, ErrUnsupportedPayload) {
		t.Errorf("silent message in an inbox: err = %v, want ErrUnsupportedPayload", err)
	}
	if _, err := encodeOut(nil, &netsim.Payload{HasUpd: true, Covers: []int{-1}}, false); !errors.Is(err, ErrUnsupportedPayload) {
		t.Errorf("negative int field: err = %v, want ErrUnsupportedPayload", err)
	}
	if _, err := encodeStep(nil, -3, nil); !errors.Is(err, ErrUnsupportedPayload) {
		t.Errorf("negative round: err = %v, want ErrUnsupportedPayload", err)
	}
}

// A payload keeps one (slot, color) for its bid and its upd, so the
// decoder rejects one whose two disagree rather than lose one of them.
// Only the reliability layer's payloads (rel) can carry both, with acks.
func TestRelBidAndUpdShareSession(t *testing.T) {
	for _, c := range []struct {
		slot, color uint32
		ok          bool
	}{{3, 1, true}, {4, 1, false}, {3, 0, false}} {
		w := writer{}
		w.u8(outHasPayload)
		w.u8(partBid | partUpd | partAcks)
		appendBid(&w, &netsim.Payload{Slot: 3, Color: 1, Delta: 0.5})
		appendUpd(&w, &netsim.Payload{Slot: c.slot, Color: c.color, Seq: 2, Covers: []int{6}})
		w.u32(1)
		appendAck(&w, netsim.Ack{Slot: 3, Color: 1, To: 5, Seq: 4})
		_, err := decodeOut(w.b, new(netsim.Payload))
		if c.ok && err != nil {
			t.Errorf("upd at (%d, %d): %v", c.slot, c.color, err)
		}
		if !c.ok && !errors.Is(err, ErrMalformed) {
			t.Errorf("upd at (%d, %d) under a bid at (3, 1): err = %v, want ErrMalformed", c.slot, c.color, err)
		}
	}
}

// A payload names its parts in one flags byte: none (silence has no wire
// form), an unknown bit, or an acks part with no ack is ErrMalformed, so
// every accepted payload has exactly one encoding.
func TestPayloadFlagsRejected(t *testing.T) {
	for _, c := range []struct {
		name string
		body []byte
	}{
		{"no part", []byte{outHasPayload, 0}},
		{"unknown bit 3", []byte{outHasPayload, partBid | 1<<3, 0, 0, 0, 3, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0}},
		{"every bit", []byte{outHasPayload, 0xFF}},
		{"empty acks", []byte{outHasPayload, partAcks, 0, 0, 0, 0}},
	} {
		if _, err := decodeOut(c.body, new(netsim.Payload)); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: err = %v, want ErrMalformed", c.name, err)
		}
	}
}

// The one layout keeps a bid and an UPD at their version-1 byte counts
// (a kind byte then, a flags byte now, before the same body) and makes a
// reliability-layer payload (rel) smaller: version 1 spent a kind byte, a
// rel-flags byte and an always-present acks count on it.
func TestPayloadByteCounts(t *testing.T) {
	acks := []netsim.Ack{{Slot: 3, Color: 1, To: 2, Seq: 1}}
	// Each row's trailing comment is its version-1 size.
	for _, c := range []struct {
		name string
		p    netsim.Payload
		want int
	}{
		{"bid", netsim.Payload{HasBid: true, Slot: 3, Color: 1, Delta: 0.5}, 17},                               // 17
		{"upd, 3 covers", netsim.Payload{HasUpd: true, Slot: 3, Color: 1, Seq: 1, Covers: []int{1, 2, 3}}, 29}, // 29
		{"rel bid", netsim.Payload{HasBid: true, Slot: 3, Color: 1, Delta: 0.5}, 17},                           // 22
		{"rel bid+acks", netsim.Payload{HasBid: true, Slot: 3, Color: 1, Delta: 0.5, Acks: acks}, 37},          // 38
		{"rel acks", netsim.Payload{Acks: acks}, 21},                                                           // 22
	} {
		w := writer{}
		appendPayload(&w, &c.p)
		if w.err != nil || len(w.b) != c.want {
			t.Errorf("%s: %d bytes (%v), want %d", c.name, len(w.b), w.err, c.want)
		}
	}
}

func TestFrameSizeLimit(t *testing.T) {
	if _, err := appendFrame(nil, frameStep, make([]byte, MaxFrameSize)); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversized body: err = %v, want ErrFrameTooLarge", err)
	}
	huge := []byte{0xff, 0xff, 0xff, 0xff, magic0, magic1, Version, frameStep}
	var scratch []byte
	if _, _, err := readFrame(bytes.NewReader(huge), &scratch); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversized length prefix: err = %v, want ErrFrameTooLarge (decoder must not allocate 4 GiB)", err)
	}
}

// frame builds a raw frame with full control over every byte — for the
// malformed-input tables and the regression corpus.
func rawFrame(length uint32, header []byte, body []byte) []byte {
	var b []byte
	b = append(b, byte(length>>24), byte(length>>16), byte(length>>8), byte(length))
	b = append(b, header...)
	return append(b, body...)
}

func validFrame(t testing.TB, typ byte, body []byte) []byte {
	f, err := appendFrame(nil, typ, body)
	if err != nil {
		t.Fatalf("appendFrame: %v", err)
	}
	return f
}

// corpusFrames returns the seed/regression corpus: one representative of
// every accept path and every reject path of the decoder.
func corpusFrames(t testing.TB) map[string][]byte {
	stepBody, err := encodeStep(nil, 5, []netsim.Message{
		{From: 0, Payload: &netsim.Payload{HasBid: true, Slot: 1, Delta: 0.5}},
		{From: 2, Payload: &netsim.Payload{HasUpd: true, Slot: 1, Seq: 3, Covers: []int{7}}},
		{From: 3, Payload: &netsim.Payload{Acks: []netsim.Ack{{Slot: 1, To: 2, Seq: 3}}}},
	})
	if err != nil {
		t.Fatalf("encodeStep: %v", err)
	}
	relBody, err := encodeOut(nil, &netsim.Payload{HasBid: true, Slot: 9, Color: 1, Delta: -2.25,
		Acks: []netsim.Ack{{To: 1, Seq: 4}}}, true)
	if err != nil {
		t.Fatalf("encodeOut: %v", err)
	}
	outBody, err := encodeOut(nil, &netsim.Payload{}, false)
	if err != nil {
		t.Fatalf("encodeOut: %v", err)
	}
	return map[string][]byte{
		"valid-step":        validFrame(t, frameStep, stepBody),
		"valid-out-rel":     validFrame(t, frameOut, relBody),
		"valid-out-silent":  validFrame(t, frameOut, outBody),
		"valid-shutdown":    validFrame(t, frameShutdown, nil),
		"empty":             {},
		"short-prefix":      {0x00, 0x00},
		"oversized-prefix":  rawFrame(0xffffffff, []byte{magic0, magic1, Version, frameStep}, nil),
		"undersized-prefix": rawFrame(2, []byte{magic0, magic1}, nil),
		"bad-magic":         rawFrame(4, []byte{'x', 'y', Version, frameStep}, nil),
		"version-skew":      rawFrame(4, []byte{magic0, magic1, Version + 1, frameStep}, nil),
		"bad-frame-type":    rawFrame(4, []byte{magic0, magic1, Version, 0x7f}, nil),
		"cut-mid-body":      validFrame(t, frameStep, stepBody)[:12],
		"trailing-bytes":    validFrame(t, frameOut, append(append([]byte{}, outBody...), 0xEE)),
		"bad-out-flags":     validFrame(t, frameOut, []byte{0xF0}),
		"bad-payload-flags": validFrame(t, frameOut, []byte{outHasPayload, 0xFF}),
		"empty-payload":     validFrame(t, frameOut, []byte{outHasPayload, 0}),
		"empty-acks":        validFrame(t, frameOut, []byte{outHasPayload, partAcks, 0, 0, 0, 0}),
		// Count field promises more elements than the frame carries: the
		// guard must reject it without allocating the promised amount.
		"count-overrun": validFrame(t, frameStep, []byte{
			0, 0, 0, 1, // round
			0xff, 0xff, 0xff, 0xff, // message count far beyond the body
			0, 0, 0, 0, partBid,
		}),
	}
}

// TestRegressionCorpus pins the checked-in fuzz corpus to the generated
// one: every accept/reject representative must exist on disk byte for
// byte (regenerate with -update-corpus).
func TestRegressionCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzFrameDecode")
	for name, frame := range corpusFrames(t) {
		content := "go test fuzz v1\n[]byte(" + strconv.Quote(string(frame)) + ")\n"
		path := filepath.Join(dir, "seed-"+name)
		if *updateCorpus {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("corpus entry %s missing (run `go test ./internal/transport -run TestRegressionCorpus -update-corpus`): %v", name, err)
		}
		if string(got) != content {
			t.Errorf("corpus entry %s is stale (regenerate with -update-corpus)", name)
		}
	}
}

// typedDecodeError reports whether err is one of the codec's documented
// rejections (or a reader-level io error) — the only errors the decoder
// may return. Anything else is an escape from the error taxonomy.
func typedDecodeError(err error) bool {
	for _, want := range []error{
		ErrFrameTooLarge, ErrBadMagic, ErrVersionSkew, ErrBadFrameType,
		ErrTruncated, ErrTrailingBytes, ErrMalformed,
		ErrUnsupportedPayload, io.EOF, io.ErrUnexpectedEOF,
	} {
		if errors.Is(err, want) {
			return true
		}
	}
	return false
}

func TestDecodeErrorsAreTyped(t *testing.T) {
	for name, frame := range corpusFrames(t) {
		var scratch []byte
		typ, body, err := readFrame(bytes.NewReader(frame), &scratch)
		if err == nil {
			switch typ {
			case frameStep:
				_, err = decodeStep(body, new(stepInbox))
			case frameOut:
				_, err = decodeOut(body, new(netsim.Payload))
			}
		}
		valid := len(name) > 5 && name[:5] == "valid"
		if valid && err != nil {
			t.Errorf("%s: unexpected decode error %v", name, err)
		}
		if !valid && err == nil {
			t.Errorf("%s: malformed frame was accepted", name)
		}
		if err != nil && !typedDecodeError(err) {
			t.Errorf("%s: error %v is not part of the typed taxonomy", name, err)
		}
	}
}

// FuzzFrameDecode hardens the decoder against arbitrary network bytes:
// it must never panic or over-read, every rejection must be a typed
// error, and every accepted frame must re-encode canonically to the very
// bytes that were decoded (so the codec has exactly one wire form per
// value — a prerequisite for the bitwise cross-driver equivalence).
func FuzzFrameDecode(f *testing.F) {
	for _, frame := range corpusFrames(f) {
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var scratch []byte
		typ, body, err := readFrame(bytes.NewReader(data), &scratch)
		if err != nil {
			if !typedDecodeError(err) {
				t.Fatalf("readFrame: untyped error %v", err)
			}
			return
		}
		switch typ {
		case frameStep:
			var in stepInbox
			round, err := decodeStep(body, &in)
			if err != nil {
				if !typedDecodeError(err) {
					t.Fatalf("decodeStep: untyped error %v", err)
				}
				return
			}
			re, err := encodeStep(nil, round, in.msgs)
			if err != nil {
				t.Fatalf("decoded step frame does not re-encode: %v", err)
			}
			if !bytes.Equal(re, body) {
				t.Fatalf("step frame is not canonical: decoded %x, re-encoded %x", body, re)
			}
		case frameOut:
			var out netsim.Payload
			done, err := decodeOut(body, &out)
			if err != nil {
				if !typedDecodeError(err) {
					t.Fatalf("decodeOut: untyped error %v", err)
				}
				return
			}
			re, err := encodeOut(nil, &out, done)
			if err != nil {
				t.Fatalf("decoded out frame does not re-encode: %v", err)
			}
			if !bytes.Equal(re, body) {
				t.Fatalf("out frame is not canonical: decoded %x, re-encoded %x", body, re)
			}
		}
	})
}
