package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
)

// Msg is one decoded protocol entry. Type discriminates which fields
// are meaningful; the rest stay zero. A flat struct (rather than an
// interface per message kind) keeps the hot decode path to one
// allocation per batch, not one per entry.
type Msg struct {
	// Type is the frame type this entry rides in.
	Type byte
	// Corr is the correlation ID: chosen by the requester, echoed on
	// the response, never interpreted by the server.
	Corr uint64

	// Acquire fields.
	Resources []string
	TimeoutMS uint32
	TTLMS     uint32 // also Renew's requested TTL
	RingGen   uint64 // acquire assertion; hello and 409 responses carry the live value

	// Grant / Release / Renew fields.
	Session string
	Node    uint16
	WaitUS  uint64

	// Error fields (Code also distinguishes retryable rejections).
	Code uint16
	Text string

	// Renewed field: milliseconds of lease lifetime remaining.
	RemainingMS uint32

	// Hello field. Server hellos also carry RingGen and reuse
	// TimeoutMS to advertise the default acquire wait budget, so the
	// client's lost-response guard can be derived from the real server
	// budget instead of a guessed constant.
	Proto byte
}

// Protocol bounds enforced by the codec on both encode (panic: caller
// bug) and decode (ErrBadFrame: untrusted input).
const (
	maxResources  = 64
	maxStringLen  = 4096
	maxResNameLen = 512
)

// appendBody encodes m's type-specific body.
func appendBody(buf []byte, typ byte, m *Msg) []byte {
	switch typ {
	case TypeHello:
		buf = append(buf, m.Proto)
		buf = binary.LittleEndian.AppendUint64(buf, m.RingGen)
		buf = binary.LittleEndian.AppendUint32(buf, m.TimeoutMS)
	case TypeAcquire:
		buf = binary.LittleEndian.AppendUint32(buf, m.TimeoutMS)
		buf = binary.LittleEndian.AppendUint32(buf, m.TTLMS)
		buf = binary.LittleEndian.AppendUint64(buf, m.RingGen)
		if len(m.Resources) == 0 || len(m.Resources) > maxResources {
			panic(fmt.Sprintf("wire: acquire with %d resources", len(m.Resources)))
		}
		buf = append(buf, byte(len(m.Resources)))
		for _, r := range m.Resources {
			buf = appendString(buf, r, maxResNameLen)
		}
	case TypeGrant:
		buf = appendString(buf, m.Session, maxStringLen)
		buf = binary.LittleEndian.AppendUint16(buf, m.Node)
		buf = binary.LittleEndian.AppendUint64(buf, m.WaitUS)
	case TypeError:
		buf = binary.LittleEndian.AppendUint16(buf, m.Code)
		buf = binary.LittleEndian.AppendUint64(buf, m.RingGen)
		buf = appendString(buf, m.Text, maxStringLen)
	case TypeRelease:
		buf = appendString(buf, m.Session, maxStringLen)
	case TypeReleased, TypePing, TypePong:
		// Correlation ID only.
	case TypeRenew:
		buf = appendString(buf, m.Session, maxStringLen)
		buf = binary.LittleEndian.AppendUint32(buf, m.TTLMS)
	case TypeRenewed:
		buf = binary.LittleEndian.AppendUint32(buf, m.RemainingMS)
	default:
		panic(fmt.Sprintf("wire: appendBody for invalid type %d", typ))
	}
	return buf
}

// decodeBody parses the type-specific body for one entry.
func decodeBody(r *reader, typ byte, m *Msg) error {
	var ok bool
	switch typ {
	case TypeHello:
		if m.Proto, ok = r.u8(); !ok {
			return errors.New("short hello")
		}
		if m.RingGen, ok = r.u64(); !ok {
			return errors.New("short hello")
		}
		if m.TimeoutMS, ok = r.u32(); !ok {
			return errors.New("short hello")
		}
	case TypeAcquire:
		if m.TimeoutMS, ok = r.u32(); !ok {
			return errors.New("short acquire")
		}
		if m.TTLMS, ok = r.u32(); !ok {
			return errors.New("short acquire")
		}
		if m.RingGen, ok = r.u64(); !ok {
			return errors.New("short acquire")
		}
		n, ok := r.u8()
		if !ok || n == 0 || int(n) > maxResources {
			return fmt.Errorf("acquire resource count %d", n)
		}
		m.Resources = make([]string, n)
		for i := range m.Resources {
			if m.Resources[i], ok = r.str(maxResNameLen); !ok {
				return errors.New("short acquire resource")
			}
		}
	case TypeGrant:
		if m.Session, ok = r.str(maxStringLen); !ok {
			return errors.New("short grant")
		}
		if m.Node, ok = r.u16(); !ok {
			return errors.New("short grant")
		}
		if m.WaitUS, ok = r.u64(); !ok {
			return errors.New("short grant")
		}
	case TypeError:
		if m.Code, ok = r.u16(); !ok {
			return errors.New("short error")
		}
		if m.RingGen, ok = r.u64(); !ok {
			return errors.New("short error")
		}
		if m.Text, ok = r.str(maxStringLen); !ok {
			return errors.New("short error text")
		}
	case TypeRelease:
		if m.Session, ok = r.str(maxStringLen); !ok {
			return errors.New("short release")
		}
	case TypeReleased, TypePing, TypePong:
		// Correlation ID only.
	case TypeRenew:
		if m.Session, ok = r.str(maxStringLen); !ok {
			return errors.New("short renew")
		}
		if m.TTLMS, ok = r.u32(); !ok {
			return errors.New("short renew")
		}
	case TypeRenewed:
		if m.RemainingMS, ok = r.u32(); !ok {
			return errors.New("short renewed")
		}
	default:
		return fmt.Errorf("unknown type %d", typ)
	}
	return nil
}

// entrySize reports the exact encoded size of one entry (correlation
// ID plus type-specific body) — the size mirror of appendBody, used by
// frameGroups to split batches before any frame can overflow
// MaxPayload.
func entrySize(m *Msg) int {
	n := 8 // correlation ID
	switch m.Type {
	case TypeHello:
		n += 1 + 8 + 4
	case TypeAcquire:
		n += 4 + 4 + 8 + 1
		for _, r := range m.Resources {
			n += 2 + len(r)
		}
	case TypeGrant:
		n += 2 + len(m.Session) + 2 + 8
	case TypeError:
		n += 2 + 8 + 2 + len(m.Text)
	case TypeRelease:
		n += 2 + len(m.Session)
	case TypeRenew:
		n += 2 + len(m.Session) + 4
	case TypeRenewed:
		n += 4
	}
	return n
}

// frameGroups splits a batch into per-frame entry runs and appends them
// to groups: consecutive same-type entries group together (frames carry
// one type only), and a run is cut whenever appending the next entry
// would push the frame's payload past MaxPayload. Relative order is
// preserved throughout, so batching never reorders a connection's
// responses. The write loops pass their previous result truncated to
// zero length, so a steady stream of writes allocates no group slice.
func frameGroups(groups [][]Msg, batch []Msg) [][]Msg {
	for i := 0; i < len(batch); {
		typ := batch[i].Type
		size := entrySize(&batch[i])
		j := i + 1
		for j < len(batch) && batch[j].Type == typ {
			es := entrySize(&batch[j])
			if size+es > MaxPayload {
				break
			}
			size += es
			j++
		}
		groups = append(groups, batch[i:j])
		i = j
	}
	return groups
}

// coalesce tops batch up, without blocking, with what is queued on ch (to
// at most max entries) — the opportunistic drain both write loops run
// after their one blocking receive. inflight is the connection's count of
// operations that still owe or await an entry; while it exceeds what the
// batch already holds, more entries are about to be queued by goroutines
// that are runnable right now, so coalesce yields the processor to them
// once — a scheduler yield, never a timer or a sleep — and drains again:
// entries that complete within one scheduler pass leave in one frame and
// one write. A lone caller has nothing else in flight and never yields.
func coalesce(batch []Msg, ch <-chan Msg, max int, inflight *atomic.Int64) []Msg {
	batch = drain(batch, ch, max)
	if len(batch) < max && inflight.Load() > int64(len(batch)) {
		runtime.Gosched()
		batch = drain(batch, ch, max)
	}
	return batch
}

// drain appends the entries already queued on ch to batch, to at most max
// in all, and never blocks; a closed ch ends it like an empty one.
func drain(batch []Msg, ch <-chan Msg, max int) []Msg {
	for len(batch) < max {
		select {
		case m, ok := <-ch:
			if !ok {
				return batch
			}
			batch = append(batch, m)
		default:
			return batch
		}
	}
	return batch
}

// Check validates m against the protocol's encode bounds, returning an
// error where AppendFrame would panic. The client runs it on every
// caller-built request before enqueueing, so oversized input surfaces
// as an error on the calling goroutine instead of a panic in the
// shared writer.
func (m *Msg) Check() error {
	if m.Type == TypeAcquire && (len(m.Resources) == 0 || len(m.Resources) > maxResources) {
		return fmt.Errorf("wire: acquire with %d resources (bound 1..%d)", len(m.Resources), maxResources)
	}
	for _, r := range m.Resources {
		if len(r) > maxResNameLen {
			return fmt.Errorf("wire: resource name length %d exceeds bound %d", len(r), maxResNameLen)
		}
	}
	if len(m.Session) > maxStringLen {
		return fmt.Errorf("wire: session length %d exceeds bound %d", len(m.Session), maxStringLen)
	}
	if len(m.Text) > maxStringLen {
		return fmt.Errorf("wire: text length %d exceeds bound %d", len(m.Text), maxStringLen)
	}
	return nil
}

// appendString encodes a length-prefixed string, panicking past the
// protocol bound (encode side is caller-controlled).
func appendString(buf []byte, s string, maxLen int) []byte {
	if len(s) > maxLen {
		panic(fmt.Sprintf("wire: string length %d exceeds bound %d", len(s), maxLen))
	}
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(s)))
	return append(buf, s...)
}

// reader is a bounds-checked cursor over a frame payload.
type reader struct {
	buf []byte
	off int
}

func (r *reader) u8() (byte, bool) {
	if r.off+1 > len(r.buf) {
		return 0, false
	}
	v := r.buf[r.off]
	r.off++
	return v, true
}

func (r *reader) u16() (uint16, bool) {
	if r.off+2 > len(r.buf) {
		return 0, false
	}
	v := binary.LittleEndian.Uint16(r.buf[r.off:])
	r.off += 2
	return v, true
}

func (r *reader) u32() (uint32, bool) {
	if r.off+4 > len(r.buf) {
		return 0, false
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v, true
}

func (r *reader) u64() (uint64, bool) {
	if r.off+8 > len(r.buf) {
		return 0, false
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v, true
}

func (r *reader) str(maxLen int) (string, bool) {
	n, ok := r.u16()
	if !ok || int(n) > maxLen || r.off+int(n) > len(r.buf) {
		return "", false
	}
	v := string(r.buf[r.off : r.off+int(n)])
	r.off += int(n)
	return v, true
}
