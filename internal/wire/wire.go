// Package wire implements the compact length-prefixed binary framing
// (content type application/x-lpdag-bin) of the campaign shard stream,
// which a coordinator negotiates next to JSON lines, and of the session
// snapshots in the durable log and the drain hand-off.
//
// A stream is a sequence of frames, each a one-byte type tag followed by
// a uvarint payload length and the payload bytes:
//
//	'R' <uvarint len> <payload>   one result record
//	'H' <uvarint 0>               heartbeat (keepalive, no payload)
//	'E' <uvarint len> <utf-8>     terminal error message; ends the stream
//	'S' <uvarint len> <payload>   one session snapshot (durable store
//	                              records and the hand-off endpoint)
//	'D' <uvarint len> <id>        session tombstone (durable store only)
//
// The payload encoding belongs to the producer (the campaign shard
// stream carries binary PointResult records, the session store and
// hand-off carry session snapshots); this package only owns the
// envelope and the primitive field encodings those payloads share:
// uvarint for non-negative integers, zigzag varint for signed ones,
// length-prefixed UTF-8 for strings, and IEEE-754 bits as a fixed 8-byte
// big-endian word for float64 (exact round-trip by construction).
package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strings"
)

// ContentType is the MIME type of the binary framing, used as the Accept
// value that requests it and the Content-Type that labels it.
const ContentType = "application/x-lpdag-bin"

// Accepts reports whether an Accept header value asks for the binary
// framing: any comma-separated member whose media type is ContentType
// (parameters like q= are tolerated and ignored — the protocol has only
// two representations, so preference order beyond "binary requested"
// carries no information).
func Accepts(accept string) bool {
	for _, item := range strings.Split(accept, ",") {
		if i := strings.IndexByte(item, ';'); i >= 0 {
			item = item[:i]
		}
		if strings.TrimSpace(item) == ContentType {
			return true
		}
	}
	return false
}

// Frame type tags.
const (
	FrameResult    = byte('R')
	FrameHeartbeat = byte('H')
	FrameError     = byte('E')
	FrameSnapshot  = byte('S')
	FrameDelete    = byte('D')
)

// HeartbeatFrame is the constant encoding of a heartbeat frame.
var HeartbeatFrame = []byte{FrameHeartbeat, 0}

// AppendFrame appends a frame of the given type around payload.
func AppendFrame(dst []byte, typ byte, payload []byte) []byte {
	dst = append(dst, typ)
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	return append(dst, payload...)
}

// Reader decodes a frame stream, reusing one payload buffer across
// frames (the returned payload is valid until the next ReadFrame).
type Reader struct {
	br  *bufio.Reader
	buf []byte
	max int
}

// NewReader wraps r for frame decoding; maxPayload caps a single frame's
// payload (a corrupt length prefix must not become an attempted huge
// allocation).
func NewReader(r io.Reader, maxPayload int) *Reader {
	return &Reader{br: bufio.NewReader(r), max: maxPayload}
}

// ReadFrame returns the next frame. At end of stream it returns io.EOF;
// a stream truncated mid-frame returns io.ErrUnexpectedEOF.
func (r *Reader) ReadFrame() (typ byte, payload []byte, err error) {
	typ, err = r.br.ReadByte()
	if err != nil {
		return 0, nil, err // io.EOF here is a clean end of stream
	}
	switch typ {
	case FrameResult, FrameHeartbeat, FrameError, FrameSnapshot, FrameDelete:
	default:
		return 0, nil, fmt.Errorf("wire: unknown frame type 0x%02x", typ)
	}
	n, err := binary.ReadUvarint(r.br)
	if err != nil {
		return 0, nil, unexpectedEOF(err)
	}
	if n > uint64(r.max) {
		return 0, nil, fmt.Errorf("wire: frame payload %d exceeds limit %d", n, r.max)
	}
	if uint64(cap(r.buf)) < n {
		r.buf = make([]byte, n)
	}
	r.buf = r.buf[:n]
	if _, err := io.ReadFull(r.br, r.buf); err != nil {
		return 0, nil, unexpectedEOF(err)
	}
	return typ, r.buf, nil
}

func unexpectedEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// AppendUvarint appends v as an unsigned varint.
func AppendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

// AppendString appends a length-prefixed string.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendFloat64 appends f as its IEEE-754 bits, big-endian.
func AppendFloat64(dst []byte, f float64) []byte {
	return binary.BigEndian.AppendUint64(dst, math.Float64bits(f))
}

// AppendZigzag appends v as a zigzag-encoded varint (signed values of
// small magnitude stay short).
func AppendZigzag(dst []byte, v int64) []byte {
	return binary.AppendUvarint(dst, uint64(v<<1)^uint64(v>>63))
}

// Dec is a cursor over one frame payload. Decode methods consume from
// the front; the first failure latches into Err and subsequent calls
// return zero values, so a decode sequence can check the error once at
// the end. A canonical decoder must also check Rest() == 0.
type Dec struct {
	b   []byte
	err error
}

// NewDec returns a decoder over b (which it does not copy).
func NewDec(b []byte) *Dec { return &Dec{b: b} }

// Err returns the first decode failure, if any.
func (d *Dec) Err() error { return d.err }

// Rest returns the number of unconsumed bytes.
func (d *Dec) Rest() int { return len(d.b) }

func (d *Dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("wire: "+format, args...)
	}
}

// Uvarint consumes an unsigned varint.
func (d *Dec) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("truncated or overlong uvarint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

// Zigzag consumes a zigzag-encoded signed varint.
func (d *Dec) Zigzag() int64 {
	u := d.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// String consumes a length-prefixed string of at most max bytes.
func (d *Dec) String(max int) string {
	n := d.Uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(max) {
		d.fail("string length %d exceeds limit %d", n, max)
		return ""
	}
	if uint64(len(d.b)) < n {
		d.fail("truncated string")
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

// Float64 consumes an 8-byte big-endian IEEE-754 float.
func (d *Dec) Float64() float64 {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 8 {
		d.fail("truncated float64")
		return 0
	}
	f := math.Float64frombits(binary.BigEndian.Uint64(d.b))
	d.b = d.b[8:]
	return f
}

// Byte consumes one byte.
func (d *Dec) Byte() byte {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 1 {
		d.fail("truncated byte")
		return 0
	}
	b := d.b[0]
	d.b = d.b[1:]
	return b
}
