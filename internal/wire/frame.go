package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Frame layout (all integers little-endian):
//
//	byte  0      magic (0xD7)
//	byte  1      frame type (one of the Type* constants)
//	bytes 2-3    entry count, uint16
//	bytes 4-7    payload length, uint32 (bytes after the header)
//	bytes 8-11   CRC32-IEEE over bytes 0-7 and the payload
//	bytes 12..   payload: count entries, each a uint64 correlation ID
//	             followed by a type-specific body (see codec.go)
//
// A frame carries entries of one type only; batching happens by
// packing many entries into one frame and many frames into one TCP
// write. Anything that fails to parse — bad magic, unknown type,
// oversized payload, checksum mismatch, short or trailing entry
// bytes — is ErrBadFrame, after which the stream cannot be trusted
// and the connection must be dropped.
const (
	frameMagic  = 0xD7
	headerSize  = 12
	entryMinLen = 8 // correlation ID alone (empty body)

	// MaxPayload bounds one frame's payload so a corrupted or hostile
	// length prefix cannot balloon into an allocation bomb.
	MaxPayload = 1 << 20

	// MaxEntries bounds the entries one frame may carry.
	MaxEntries = 1 << 12

	// ProtoVersion is the protocol revision spoken by this package;
	// hellos carrying any other version are rejected.
	ProtoVersion = 1
)

// Frame types. Requests flow client to server, responses server to
// client; Hello opens both directions of a connection.
const (
	TypeHello byte = iota + 1
	TypeAcquire
	TypeGrant
	TypeError
	TypeRelease
	TypeReleased
	TypeRenew
	TypeRenewed
	TypePing
	TypePong
	typeMax
)

// typeName renders a frame type for diagnostics.
func typeName(t byte) string {
	switch t {
	case TypeHello:
		return "hello"
	case TypeAcquire:
		return "acquire"
	case TypeGrant:
		return "grant"
	case TypeError:
		return "error"
	case TypeRelease:
		return "release"
	case TypeReleased:
		return "released"
	case TypeRenew:
		return "renew"
	case TypeRenewed:
		return "renewed"
	case TypePing:
		return "ping"
	case TypePong:
		return "pong"
	default:
		return fmt.Sprintf("type(%d)", t)
	}
}

// ErrBadFrame marks an undecodable or integrity-failed frame; the
// connection that produced it must be dropped (stream framing can no
// longer be trusted).
var ErrBadFrame = errors.New("wire: bad frame")

// AppendFrame encodes one frame of entries (all of frame type typ)
// onto buf and returns the extended slice. It panics on entries that
// violate protocol bounds — encoding is under caller control, so a
// violation is a programming error, not input.
func AppendFrame(buf []byte, typ byte, entries []Msg) []byte {
	if typ == 0 || typ >= typeMax {
		panic(fmt.Sprintf("wire: AppendFrame with invalid type %d", typ))
	}
	if len(entries) == 0 || len(entries) > MaxEntries {
		panic(fmt.Sprintf("wire: AppendFrame with %d entries", len(entries)))
	}
	start := len(buf)
	buf = append(buf, frameMagic, typ)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(entries)))
	buf = append(buf, 0, 0, 0, 0) // payload length, patched below
	buf = append(buf, 0, 0, 0, 0) // CRC, patched below
	for i := range entries {
		buf = binary.LittleEndian.AppendUint64(buf, entries[i].Corr)
		buf = appendBody(buf, typ, &entries[i])
	}
	payload := len(buf) - start - headerSize
	if payload > MaxPayload {
		panic(fmt.Sprintf("wire: frame payload %d exceeds MaxPayload", payload))
	}
	binary.LittleEndian.PutUint32(buf[start+4:], uint32(payload))
	binary.LittleEndian.PutUint32(buf[start+8:], frameCRC(buf[start:]))
	return buf
}

// frameCRC computes the integrity checksum of an encoded frame: CRC32
// over the header with the CRC field itself zeroed, then the payload.
func frameCRC(frame []byte) uint32 {
	crc := crc32.NewIEEE()
	crc.Write(frame[:8])
	crc.Write(frame[headerSize:])
	return crc.Sum32()
}

// ReadFrame reads and verifies one frame from br. It returns the frame
// type and decoded entries, or ErrBadFrame (wrapped with detail) when
// the stream is undecodable. io.EOF passes through cleanly only at a
// frame boundary.
func ReadFrame(br *bufio.Reader) (byte, []Msg, error) {
	// The header is read through the bufio.Reader's own methods, never
	// an io.Reader, so it stays on the stack.
	magic, err := br.ReadByte()
	if err != nil {
		return 0, nil, err // EOF at a boundary is a clean close
	}
	if magic != frameMagic {
		return 0, nil, fmt.Errorf("%w: magic 0x%02x", ErrBadFrame, magic)
	}
	rest, err := br.Peek(headerSize - 1)
	if err != nil {
		return 0, nil, fmt.Errorf("%w: short header: %v", ErrBadFrame, err)
	}
	var hdr [headerSize]byte
	hdr[0] = magic
	copy(hdr[1:], rest)
	_, _ = br.Discard(headerSize - 1)
	typ := hdr[1]
	count := int(binary.LittleEndian.Uint16(hdr[2:4]))
	n := int(binary.LittleEndian.Uint32(hdr[4:8]))
	if typ == 0 || typ >= typeMax {
		return 0, nil, fmt.Errorf("%w: unknown type %d", ErrBadFrame, typ)
	}
	if count == 0 || count > MaxEntries {
		return 0, nil, fmt.Errorf("%w: entry count %d", ErrBadFrame, count)
	}
	if n < count*entryMinLen || n > MaxPayload {
		return 0, nil, fmt.Errorf("%w: payload length %d for %d entries", ErrBadFrame, n, count)
	}
	frame := make([]byte, headerSize+n)
	copy(frame, hdr[:])
	if _, err := io.ReadFull(br, frame[headerSize:]); err != nil {
		return 0, nil, fmt.Errorf("%w: short payload: %v", ErrBadFrame, err)
	}
	want := binary.LittleEndian.Uint32(frame[8:12])
	if got := frameCRC(frame); got != want {
		return 0, nil, fmt.Errorf("%w: CRC mismatch (got %08x want %08x)", ErrBadFrame, got, want)
	}
	entries, err := decodeEntries(typ, count, frame[headerSize:])
	if err != nil {
		return 0, nil, err
	}
	return typ, entries, nil
}

// DecodeFrame decodes one frame from the start of buf, returning the
// type, entries, and bytes consumed. It is the buffer-level twin of
// ReadFrame used by tests and the fuzz target.
func DecodeFrame(buf []byte) (byte, []Msg, int, error) {
	if len(buf) < headerSize {
		return 0, nil, 0, fmt.Errorf("%w: truncated header", ErrBadFrame)
	}
	if buf[0] != frameMagic {
		return 0, nil, 0, fmt.Errorf("%w: magic 0x%02x", ErrBadFrame, buf[0])
	}
	typ := buf[1]
	count := int(binary.LittleEndian.Uint16(buf[2:4]))
	n := int(binary.LittleEndian.Uint32(buf[4:8]))
	if typ == 0 || typ >= typeMax {
		return 0, nil, 0, fmt.Errorf("%w: unknown type %d", ErrBadFrame, typ)
	}
	if count == 0 || count > MaxEntries {
		return 0, nil, 0, fmt.Errorf("%w: entry count %d", ErrBadFrame, count)
	}
	if n < count*entryMinLen || n > MaxPayload || len(buf) < headerSize+n {
		return 0, nil, 0, fmt.Errorf("%w: payload length %d", ErrBadFrame, n)
	}
	frame := buf[:headerSize+n]
	want := binary.LittleEndian.Uint32(frame[8:12])
	if got := frameCRC(frame); got != want {
		return 0, nil, 0, fmt.Errorf("%w: CRC mismatch", ErrBadFrame)
	}
	entries, err := decodeEntries(typ, count, frame[headerSize:])
	if err != nil {
		return 0, nil, 0, err
	}
	return typ, entries, headerSize + n, nil
}

// decodeEntries parses count entries out of an integrity-verified
// payload; the payload must be consumed exactly.
func decodeEntries(typ byte, count int, payload []byte) ([]Msg, error) {
	entries := make([]Msg, 0, count)
	r := reader{buf: payload}
	for i := 0; i < count; i++ {
		corr, ok := r.u64()
		if !ok {
			return nil, fmt.Errorf("%w: entry %d truncated", ErrBadFrame, i)
		}
		m := Msg{Type: typ, Corr: corr}
		if err := decodeBody(&r, typ, &m); err != nil {
			return nil, fmt.Errorf("%w: entry %d: %v", ErrBadFrame, i, err)
		}
		entries = append(entries, m)
	}
	if len(r.buf) != r.off {
		return nil, fmt.Errorf("%w: %d trailing payload bytes", ErrBadFrame, len(r.buf)-r.off)
	}
	return entries, nil
}
