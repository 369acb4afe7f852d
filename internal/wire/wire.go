// Package wire implements the length-prefixed binary frame codec the
// cross-process IPC transport speaks over its node sockets. A frame is
//
//	u32 length | u8 kind | i32 src | i32 dst | u64 tag | u64 seq |
//	u64 a | u64 b | f64 arrival | u32 plen | plen * f64 payload
//
// all little-endian, where length counts every byte after the prefix
// (HeaderLen + 8*plen). Data/Deliver frames carry one simulated message —
// (src, dst, tag, arrival, []float64) — and the remaining kinds are the
// control vocabulary of the transport: session hello, host-barrier epoch
// announcements, reset fencing, abort broadcast, the two-phase stall
// probe, shutdown, and the execution-plane run protocol (RunSpec out to
// the workers; RunAck, RankResult and StallHint back). Opaque bytes —
// run specs, error texts — ride in the float64 payload via PackBytes/
// UnpackBytes. The encoding is canonical: any frame that decodes
// re-encodes to exactly the same bytes, which is what lets the round-trip
// fuzzer compare raw bytes instead of trusting the decoder twice.
//
// The decoder is built for a hot receive loop: ReadFrame reads into a
// caller-owned scratch buffer and decodes the payload into a buffer from a
// caller-supplied acquire hook (the machine's pooled tier), so a warmed
// steady state performs no heap allocation. Malformed input — truncated,
// oversized, unknown kind, inconsistent lengths — returns one of the
// structured sentinel errors below; the decoder never panics and never
// allocates more than the input's own length can justify (lengths are
// validated before any buffer is sized from them).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Kind discriminates the frame vocabulary.
type Kind uint8

// The frame kinds. Data carries one simulated message in either direction:
// coordinator -> worker it is an inter-node edge being routed toward the
// destination node, worker -> coordinator it is an inter-node send leaving
// a worker-hosted rank. Deliver is a Data frame reflected back off a relay
// worker (the two differ only in the kind byte, so a relay worker routes
// without re-encoding). RunSpec through StallHint are the execution-plane
// control vocabulary: the coordinator ships a serialized run request to
// every worker, each worker instantiates the named program over its local
// ranks and streams back one RankResult per rank. The rest are session
// control frames.
const (
	KindInvalid    Kind = iota
	KindHello           // worker session opener; Seq = node id
	KindData            // simulated message; Seq = per-socket FIFO sequence, A = run generation on worker->coordinator frames
	KindDeliver         // simulated message, relay worker -> coordinator; same fields as the Data it reflects
	KindBarrier         // exec-mode host barrier: worker->coordinator arrival (A = run generation) or coordinator->worker release; Seq = barrier generation
	KindReset           // run fence, coordinator -> worker; Seq = reset generation
	KindResetAck        // run fence acknowledgement; Seq echoes the generation, A = data frames seen before the fence
	KindAbort           // abort broadcast, coordinator -> worker; Seq = 1 when a distributed stall was declared (ranks unwind with the deadlock cause)
	KindProbe           // stall probe, coordinator -> worker; Seq = probe epoch
	KindProbeAck        // stall probe reply; Seq echoes the epoch, A = frames received, B = frames forwarded, Tag = worker status flags (bit 0 locally stalled, bit 1 all local ranks finished)
	KindShutdown        // orderly teardown, coordinator -> worker
	KindRunSpec         // distributed run request (and start signal), coordinator -> worker; Seq = run generation, A = spec byte length, payload = PackBytes(spec JSON)
	KindRunAck          // run request rejection, worker -> coordinator; Seq echoes the generation, A = 1, B = error byte length, payload = PackBytes(error text). Acceptance is not acked.
	KindRunStart        // retired: run start, coordinator -> worker (the spec now doubles as the start signal); kept in the vocabulary for frame-log compatibility
	KindRankResult      // a node's rank results, worker -> coordinator; Src = node, Seq = run generation, A = record count, payload = packed per-rank records (rank, error class, error byte length, payload word count header words — pure bit containers — then payload words, then PackBytes(error text))
	KindStallHint       // worker -> coordinator: the node's live ranks are all blocked; Seq = run generation
	kindEnd
)

// Valid reports whether k names a defined frame kind.
func (k Kind) Valid() bool { return k > KindInvalid && k < kindEnd }

// String names the kind for diagnostics.
func (k Kind) String() string {
	switch k {
	case KindHello:
		return "hello"
	case KindData:
		return "data"
	case KindDeliver:
		return "deliver"
	case KindBarrier:
		return "barrier"
	case KindReset:
		return "reset"
	case KindResetAck:
		return "reset-ack"
	case KindAbort:
		return "abort"
	case KindProbe:
		return "probe"
	case KindProbeAck:
		return "probe-ack"
	case KindShutdown:
		return "shutdown"
	case KindRunSpec:
		return "run-spec"
	case KindRunAck:
		return "run-ack"
	case KindRunStart:
		return "run-start"
	case KindRankResult:
		return "rank-result"
	case KindStallHint:
		return "stall-hint"
	}
	return fmt.Sprintf("wire.Kind(%d)", uint8(k))
}

// PackBytes packs b into the frame payload unit — float64 words holding
// the bytes little-endian, the final word zero-padded. The words are pure
// bit containers (never arithmetic operands), so the round trip through
// Float64bits is exact for any input. The byte length travels separately
// in a frame header field (see KindRunSpec/KindRankResult).
func PackBytes(b []byte) []float64 {
	words := make([]float64, (len(b)+7)/8)
	for i := range words {
		var chunk [8]byte
		copy(chunk[:], b[8*i:])
		words[i] = math.Float64frombits(binary.LittleEndian.Uint64(chunk[:]))
	}
	return words
}

// UnpackBytes recovers n bytes from the tail-aligned words produced by
// PackBytes. It errors rather than panics on an n the words cannot hold,
// since both travel over the wire and may disagree under corruption.
func UnpackBytes(words []float64, n int) ([]byte, error) {
	if n < 0 || (n+7)/8 > len(words) {
		return nil, fmt.Errorf("wire: %d bytes do not fit in %d payload words", n, len(words))
	}
	b := make([]byte, n)
	for i := 0; i < n; i += 8 {
		var chunk [8]byte
		binary.LittleEndian.PutUint64(chunk[:], math.Float64bits(words[i/8]))
		copy(b[i:], chunk[:])
	}
	return b, nil
}

const (
	// HeaderLen is the fixed frame body size before the payload: kind,
	// src, dst, tag, seq, a, b, arrival, plen.
	HeaderLen = 1 + 4 + 4 + 8 + 8 + 8 + 8 + 8 + 4
	// MaxPayloadWords bounds one frame's payload (128 MiB of float64s) —
	// the allocation guard a hostile length prefix is validated against
	// before any buffer is sized from it.
	MaxPayloadWords = 1 << 24
	// MaxBody is the largest legal frame body (everything after the
	// length prefix).
	MaxBody = HeaderLen + 8*MaxPayloadWords
)

// The structured decode errors. Every failure of DecodeFrame/ReadFrame on
// malformed bytes wraps exactly one of these (ReadFrame additionally
// passes through I/O errors from the underlying reader, including io.EOF
// on a clean close between frames).
var (
	// ErrTruncated reports input ending before the declared frame does,
	// or a body shorter than the fixed header.
	ErrTruncated = errors.New("wire: truncated frame")
	// ErrOversize reports a length prefix or payload count beyond MaxBody
	// / MaxPayloadWords.
	ErrOversize = errors.New("wire: frame exceeds maximum size")
	// ErrBadKind reports an undefined kind byte.
	ErrBadKind = errors.New("wire: invalid frame kind")
	// ErrLengthMismatch reports a length prefix that disagrees with the
	// payload count (the two encode the same fact; a consistent frame
	// must agree).
	ErrLengthMismatch = errors.New("wire: frame length disagrees with payload length")
)

// Frame is one decoded frame. Field meaning depends on Kind (see the kind
// constants); unused fields encode as zero and must decode as zero, which
// the canonical-bytes fuzz property enforces for free.
type Frame struct {
	Kind     Kind
	Src, Dst int32
	Tag      uint64
	Seq      uint64
	A, B     uint64
	Arrival  float64
	Payload  []float64
}

// EncodedLen returns the full encoded size of f, length prefix included.
func EncodedLen(f *Frame) int { return 4 + HeaderLen + 8*len(f.Payload) }

// AppendFrame appends f's canonical encoding (length prefix included) to
// dst and returns the extended slice. Payloads beyond MaxPayloadWords are
// a programming error and panic: the cap exists to bound what a decoder
// can be made to allocate, not to silently drop traffic.
func AppendFrame(dst []byte, f *Frame) []byte {
	if len(f.Payload) > MaxPayloadWords {
		panic(fmt.Sprintf("wire: payload of %d words exceeds MaxPayloadWords (%d)", len(f.Payload), MaxPayloadWords))
	}
	body := HeaderLen + 8*len(f.Payload)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(body))
	dst = append(dst, byte(f.Kind))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(f.Src))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(f.Dst))
	dst = binary.LittleEndian.AppendUint64(dst, f.Tag)
	dst = binary.LittleEndian.AppendUint64(dst, f.Seq)
	dst = binary.LittleEndian.AppendUint64(dst, f.A)
	dst = binary.LittleEndian.AppendUint64(dst, f.B)
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(f.Arrival))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(f.Payload)))
	for _, v := range f.Payload {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// decodeBody decodes one frame body (the bytes after the length prefix)
// into f. The payload buffer comes from acquire (nil acquire allocates);
// acquire is only called after the payload count has been validated
// against both MaxPayloadWords and the actual body length.
func decodeBody(body []byte, f *Frame, acquire func(n int) []float64) error {
	if len(body) < HeaderLen {
		return fmt.Errorf("%w: body of %d bytes, header needs %d", ErrTruncated, len(body), HeaderLen)
	}
	k := Kind(body[0])
	if !k.Valid() {
		return fmt.Errorf("%w: %d", ErrBadKind, body[0])
	}
	plen := binary.LittleEndian.Uint32(body[49:53])
	if plen > MaxPayloadWords {
		return fmt.Errorf("%w: payload of %d words (max %d)", ErrOversize, plen, MaxPayloadWords)
	}
	if want := HeaderLen + 8*int(plen); len(body) != want {
		return fmt.Errorf("%w: body of %d bytes, %d payload words need %d", ErrLengthMismatch, len(body), plen, want)
	}
	f.Kind = k
	f.Src = int32(binary.LittleEndian.Uint32(body[1:5]))
	f.Dst = int32(binary.LittleEndian.Uint32(body[5:9]))
	f.Tag = binary.LittleEndian.Uint64(body[9:17])
	f.Seq = binary.LittleEndian.Uint64(body[17:25])
	f.A = binary.LittleEndian.Uint64(body[25:33])
	f.B = binary.LittleEndian.Uint64(body[33:41])
	f.Arrival = math.Float64frombits(binary.LittleEndian.Uint64(body[41:49]))
	if plen == 0 {
		f.Payload = nil
		return nil
	}
	var buf []float64
	if acquire != nil {
		buf = acquire(int(plen))
	} else {
		buf = make([]float64, plen)
	}
	for i := 0; i < int(plen); i++ {
		buf[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[HeaderLen+8*i:]))
	}
	f.Payload = buf
	return nil
}

// DecodeFrame decodes one length-prefixed frame from the start of buf into
// f, returning the number of bytes consumed. Malformed input returns a
// structured error (see the sentinels above) and consumes nothing.
func DecodeFrame(buf []byte, f *Frame, acquire func(n int) []float64) (int, error) {
	if len(buf) < 4 {
		return 0, fmt.Errorf("%w: %d bytes, length prefix needs 4", ErrTruncated, len(buf))
	}
	n := binary.LittleEndian.Uint32(buf)
	if n > MaxBody {
		return 0, fmt.Errorf("%w: declared body of %d bytes (max %d)", ErrOversize, n, MaxBody)
	}
	if len(buf) < 4+int(n) {
		return 0, fmt.Errorf("%w: declared body of %d bytes, %d available", ErrTruncated, n, len(buf)-4)
	}
	if err := decodeBody(buf[4:4+int(n)], f, acquire); err != nil {
		return 0, err
	}
	return 4 + int(n), nil
}

// ReadFrame reads one frame from r into f. *scratch is the caller's reused
// body buffer (grown as needed, never shrunk); acquire supplies the
// payload buffer as in DecodeFrame. A clean close between frames returns
// io.EOF unwrapped; a close mid-frame returns an error wrapping
// ErrTruncated.
func ReadFrame(r io.Reader, f *Frame, scratch *[]byte, acquire func(n int) []float64) error {
	// The prefix is read through the scratch buffer rather than a local
	// array: a stack array passed through the io.Reader interface escapes
	// and would cost one heap allocation per frame.
	if cap(*scratch) < 4 {
		*scratch = make([]byte, 64)
	}
	prefix := (*scratch)[:4]
	if _, err := io.ReadFull(r, prefix); err != nil {
		if err == io.ErrUnexpectedEOF {
			return fmt.Errorf("%w: connection closed inside length prefix", ErrTruncated)
		}
		return err
	}
	n := binary.LittleEndian.Uint32(prefix)
	if n > MaxBody {
		return fmt.Errorf("%w: declared body of %d bytes (max %d)", ErrOversize, n, MaxBody)
	}
	if n < HeaderLen {
		return fmt.Errorf("%w: declared body of %d bytes, header needs %d", ErrTruncated, n, HeaderLen)
	}
	if cap(*scratch) < int(n) {
		*scratch = make([]byte, n)
	}
	body := (*scratch)[:n]
	if _, err := io.ReadFull(r, body); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return fmt.Errorf("%w: connection closed inside frame body", ErrTruncated)
		}
		return err
	}
	return decodeBody(body, f, acquire)
}

// WriteFrame encodes f into *scratch (reused across calls) and writes it
// to w in one call.
func WriteFrame(w io.Writer, scratch *[]byte, f *Frame) error {
	*scratch = AppendFrame((*scratch)[:0], f)
	_, err := w.Write(*scratch)
	return err
}
