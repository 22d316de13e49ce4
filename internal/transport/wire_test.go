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

// samplePayloads covers every payload kind, including the edge shapes:
// NaN and negative-zero floats (bitwise round-trip), empty and non-empty
// covers/acks, and rel messages with every flag combination.
func samplePayloads() []netsim.Payload {
	covers := []int{1, 5, 9}
	return []netsim.Payload{
		{Kind: netsim.KindBid, Slot: 3, Color: 1, Delta: 0.125},
		{Kind: netsim.KindBid, Slot: 0, Color: 0, Delta: math.NaN()},
		{Kind: netsim.KindBid, Slot: 1, Color: 2, Delta: math.Copysign(0, -1)},
		{Kind: netsim.KindUpd, Slot: 2, Color: 0, Seq: 7, Covers: covers},
		{Kind: netsim.KindUpd, Slot: 0, Color: 3, Seq: 1},
		{Kind: netsim.KindAck, Slot: 4, Color: 1, To: 6, Seq: 9},
		{Kind: netsim.KindRel},
		{Kind: netsim.KindRel, HasBid: true, Slot: 3, Color: 1, Delta: 0.125},
		{Kind: netsim.KindRel, HasUpd: true, Slot: 2, Seq: 7, Covers: covers,
			Acks: []netsim.Ack{{Slot: 1, To: 2, Seq: 3}, {Slot: 1, Color: 1, To: 0, Seq: 8}}},
		{Kind: netsim.KindRel, HasBid: true, HasUpd: true, Slot: 2, Delta: 0.125, Seq: 7, Covers: covers,
			Acks: []netsim.Ack{{To: 4, Seq: 2}}},
	}
}

// payloadEqual compares payloads with float64 fields bit for bit (NaN
// included) — the equivalence contract is bitwise, not semantic.
func payloadEqual(a, b netsim.Payload) bool {
	ab, errA := encodeOut(nil, a, false)
	bb, errB := encodeOut(nil, b, false)
	return errA == nil && errB == nil && bytes.Equal(ab, bb)
}

func TestStepFrameRoundTrip(t *testing.T) {
	var inbox []netsim.Message
	for i, p := range samplePayloads() {
		inbox = append(inbox, netsim.Message{From: i, Payload: p})
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
		round, decoded, err := decodeStep(got, nil)
		if err != nil {
			t.Fatalf("decodeStep: %v", err)
		}
		if round != 41 {
			t.Errorf("round = %d, want 41", round)
		}
		if len(decoded) != len(msgs) {
			t.Fatalf("decoded %d messages, want %d", len(decoded), len(msgs))
		}
		for i := range msgs {
			if decoded[i].From != msgs[i].From || !payloadEqual(decoded[i].Payload, msgs[i].Payload) {
				t.Errorf("message %d does not round-trip: %#v != %#v", i, decoded[i], msgs[i])
			}
		}
	}
}

func TestOutFrameRoundTrip(t *testing.T) {
	cases := append(samplePayloads(), netsim.Payload{})
	for _, done := range []bool{false, true} {
		for i, p := range cases {
			body, err := encodeOut(nil, p, done)
			if err != nil {
				t.Fatalf("case %d: encodeOut: %v", i, err)
			}
			got, gotDone, err := decodeOut(body)
			if err != nil {
				t.Fatalf("case %d: decodeOut: %v", i, err)
			}
			if gotDone != done {
				t.Errorf("case %d: done = %v, want %v", i, gotDone, done)
			}
			silent := p.Kind == netsim.KindNone
			if silent != (got.Kind == netsim.KindNone) || (!silent && !payloadEqual(got, p)) {
				t.Errorf("case %d: payload does not round-trip: %#v != %#v", i, got, p)
			}
		}
	}
}

// With warm buffers the codec allocates nothing but each decoded UPD's
// covers: encoding a step or an out frame and reading a frame into a
// grown scratch allocate 0, and decoding a step into a reused inbox
// allocates once per UPD it carries.
func TestCodecAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts need a non-race build")
	}
	var bids, mixed []netsim.Message
	for i := 0; i < 8; i++ {
		bids = append(bids, netsim.Message{From: i, Payload: netsim.Payload{Kind: netsim.KindBid, Slot: 3, Color: 1, Delta: float64(i)}})
	}
	mixed = append(mixed, bids...)
	for i := 0; i < 3; i++ {
		mixed = append(mixed, netsim.Message{From: 8 + i, Payload: netsim.Payload{
			Kind: netsim.KindUpd, Slot: 3, Color: 1, Seq: uint32(i), Covers: []int{4, 8, 15}}})
	}
	var body []byte
	var inbox []netsim.Message
	var err error
	for _, c := range []struct {
		name   string
		msgs   []netsim.Message
		allocs float64
	}{{"bid-only", bids, 0}, {"three upds", mixed, 3}} {
		encode := func() { body, err = encodeStep(body[:0], 7, c.msgs) }
		decode := func() { _, inbox, err = decodeStep(body, inbox) }
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
		if err != nil || len(inbox) != len(c.msgs) || !payloadEqual(inbox[len(inbox)-1].Payload, c.msgs[len(c.msgs)-1].Payload) {
			t.Errorf("%s: decoded %d messages (%v), want %d", c.name, len(inbox), err, len(c.msgs))
		}
	}
	for i, p := range samplePayloads() {
		encode := func() { body, err = encodeOut(body[:0], p, true) }
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
		body, err := encodeOut(nil, p, true)
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
	if _, err := encodeOut(nil, netsim.Payload{Kind: 0x7f}, false); !errors.Is(err, ErrUnsupportedPayload) {
		t.Errorf("unknown payload kind: err = %v, want ErrUnsupportedPayload", err)
	}
	if _, err := encodeOut(nil, netsim.Payload{Kind: netsim.KindUpd, Covers: []int{-1}}, false); !errors.Is(err, ErrUnsupportedPayload) {
		t.Errorf("negative int field: err = %v, want ErrUnsupportedPayload", err)
	}
	if _, err := encodeStep(nil, -3, nil); !errors.Is(err, ErrUnsupportedPayload) {
		t.Errorf("negative round: err = %v, want ErrUnsupportedPayload", err)
	}
}

// A rel payload keeps one (slot, color) for its bid and its upd, so the
// decoder rejects a rel whose two disagree rather than lose one of them.
func TestRelBidAndUpdShareSession(t *testing.T) {
	for _, c := range []struct {
		slot, color uint32
		ok          bool
	}{{3, 1, true}, {4, 1, false}, {3, 0, false}} {
		w := writer{}
		w.u8(outHasPayload)
		w.u8(byte(netsim.KindRel))
		w.u8(relHasBid | relHasUpd)
		appendBid(&w, &netsim.Payload{Slot: 3, Color: 1, Delta: 0.5})
		appendUpd(&w, &netsim.Payload{Slot: c.slot, Color: c.color, Seq: 2, Covers: []int{6}})
		w.u32(0) // no acks
		_, _, err := decodeOut(w.b)
		if c.ok && err != nil {
			t.Errorf("upd at (%d, %d): %v", c.slot, c.color, err)
		}
		if !c.ok && !errors.Is(err, ErrMalformed) {
			t.Errorf("upd at (%d, %d) under a bid at (3, 1): err = %v, want ErrMalformed", c.slot, c.color, err)
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
		{From: 0, Payload: netsim.Payload{Kind: netsim.KindBid, Slot: 1, Delta: 0.5}},
		{From: 2, Payload: netsim.Payload{Kind: netsim.KindUpd, Slot: 1, Seq: 3, Covers: []int{7}}},
		{From: 3, Payload: netsim.Payload{Kind: netsim.KindAck, Slot: 1, To: 2, Seq: 3}},
	})
	if err != nil {
		t.Fatalf("encodeStep: %v", err)
	}
	relBody, err := encodeOut(nil, netsim.Payload{Kind: netsim.KindRel, HasBid: true, Slot: 9, Color: 1, Delta: -2.25,
		Acks: []netsim.Ack{{To: 1, Seq: 4}}}, true)
	if err != nil {
		t.Fatalf("encodeOut: %v", err)
	}
	outBody, err := encodeOut(nil, netsim.Payload{}, false)
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
		"bad-payload-kind":  validFrame(t, frameOut, []byte{outHasPayload, 0x9}),
		"bad-out-flags":     validFrame(t, frameOut, []byte{0xF0}),
		"bad-rel-flags":     validFrame(t, frameOut, []byte{outHasPayload, byte(netsim.KindRel), 0xFF}),
		// Count field promises more elements than the frame carries: the
		// guard must reject it without allocating the promised amount.
		"count-overrun": validFrame(t, frameStep, []byte{
			0, 0, 0, 1, // round
			0xff, 0xff, 0xff, 0xff, // message count far beyond the body
			0, 0, 0, 0, byte(netsim.KindBid),
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
		ErrTruncated, ErrTrailingBytes, ErrBadPayloadKind, ErrMalformed,
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
				_, _, err = decodeStep(body, nil)
			case frameOut:
				_, _, err = decodeOut(body)
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
			round, inbox, err := decodeStep(body, nil)
			if err != nil {
				if !typedDecodeError(err) {
					t.Fatalf("decodeStep: untyped error %v", err)
				}
				return
			}
			re, err := encodeStep(nil, round, inbox)
			if err != nil {
				t.Fatalf("decoded step frame does not re-encode: %v", err)
			}
			if !bytes.Equal(re, body) {
				t.Fatalf("step frame is not canonical: decoded %x, re-encoded %x", body, re)
			}
		case frameOut:
			out, done, err := decodeOut(body)
			if err != nil {
				if !typedDecodeError(err) {
					t.Fatalf("decodeOut: untyped error %v", err)
				}
				return
			}
			re, err := encodeOut(nil, out, done)
			if err != nil {
				t.Fatalf("decoded out frame does not re-encode: %v", err)
			}
			if !bytes.Equal(re, body) {
				t.Fatalf("out frame is not canonical: decoded %x, re-encoded %x", body, re)
			}
		}
	})
}
