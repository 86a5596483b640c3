package wire

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

// sampleEntries returns one representative entry per frame type, with
// every field the type carries populated.
func sampleEntries() map[byte][]Msg {
	return map[byte][]Msg{
		TypeHello: {{Type: TypeHello, Corr: 1, Proto: ProtoVersion, RingGen: 7, TimeoutMS: 5000}},
		TypeAcquire: {
			{Type: TypeAcquire, Corr: 2, Resources: []string{"a", "b/0"}, TimeoutMS: 2000, TTLMS: 30000, RingGen: 3},
			{Type: TypeAcquire, Corr: 3, Resources: []string{"k:17"}},
		},
		TypeGrant: {
			{Type: TypeGrant, Corr: 2, Session: "k0:s00000001-4", Node: 4, WaitUS: 1234567},
			{Type: TypeGrant, Corr: 3, Session: "k1:s00000002-0"},
		},
		TypeError: {
			{Type: TypeError, Corr: 9, Code: 409, Text: "stale ring generation", RingGen: 12},
			{Type: TypeError, Corr: 10, Code: 429, Text: ""},
		},
		TypeRelease:  {{Type: TypeRelease, Corr: 4, Session: "k0:s00000001-4"}},
		TypeReleased: {{Type: TypeReleased, Corr: 4}},
		TypeRenew:    {{Type: TypeRenew, Corr: 5, Session: "k0:s00000001-4", TTLMS: 45000}},
		TypeRenewed:  {{Type: TypeRenewed, Corr: 5, RemainingMS: 45000}},
		TypePing:     {{Type: TypePing, Corr: 6}},
		TypePong:     {{Type: TypePong, Corr: 6}},
	}
}

func TestFrameRoundTripAllTypes(t *testing.T) {
	for typ, entries := range sampleEntries() {
		buf := AppendFrame(nil, typ, entries)

		gotTyp, got, consumed, err := DecodeFrame(buf)
		if err != nil {
			t.Fatalf("%s: DecodeFrame: %v", typeName(typ), err)
		}
		if gotTyp != typ || consumed != len(buf) {
			t.Fatalf("%s: decoded type %d consumed %d of %d", typeName(typ), gotTyp, consumed, len(buf))
		}
		if !reflect.DeepEqual(got, entries) {
			t.Errorf("%s: round trip mismatch\n got %+v\nwant %+v", typeName(typ), got, entries)
		}

		rTyp, rGot, err := ReadFrame(bufio.NewReader(bytes.NewReader(buf)))
		if err != nil || rTyp != typ || !reflect.DeepEqual(rGot, entries) {
			t.Errorf("%s: ReadFrame mismatch (err %v)", typeName(typ), err)
		}
	}
}

func TestFrameConcatenationPreservesBoundaries(t *testing.T) {
	var buf []byte
	buf = AppendFrame(buf, TypeAcquire, []Msg{{Type: TypeAcquire, Corr: 1, Resources: []string{"x"}}})
	buf = AppendFrame(buf, TypePing, []Msg{{Type: TypePing, Corr: 2}})
	buf = AppendFrame(buf, TypeRelease, []Msg{{Type: TypeRelease, Corr: 3, Session: "s"}})

	br := bufio.NewReader(bytes.NewReader(buf))
	wantTypes := []byte{TypeAcquire, TypePing, TypeRelease}
	for _, want := range wantTypes {
		typ, entries, err := ReadFrame(br)
		if err != nil {
			t.Fatalf("ReadFrame: %v", err)
		}
		if typ != want || len(entries) != 1 {
			t.Fatalf("got type %s want %s", typeName(typ), typeName(want))
		}
	}
	if _, _, err := ReadFrame(br); err != io.EOF {
		t.Fatalf("expected clean EOF at boundary, got %v", err)
	}
}

func TestFrameEveryByteFlipRejected(t *testing.T) {
	entries := []Msg{
		{Type: TypeAcquire, Corr: 42, Resources: []string{"r0", "r1"}, TimeoutMS: 100, TTLMS: 200, RingGen: 9},
	}
	frame := AppendFrame(nil, TypeAcquire, entries)
	for pos := 0; pos < len(frame); pos++ {
		for _, mask := range []byte{0x01, 0x80, 0xff} {
			mut := append([]byte(nil), frame...)
			mut[pos] ^= mask
			typ, got, consumed, err := DecodeFrame(mut)
			if err == nil {
				// A flip must never silently decode to something else.
				if typ != TypeAcquire || consumed != len(frame) || !reflect.DeepEqual(got, entries) {
					t.Fatalf("flip at %d mask %02x decoded to altered content", pos, mask)
				}
				t.Fatalf("flip at %d mask %02x passed CRC", pos, mask)
			}
			if !errors.Is(err, ErrBadFrame) && pos >= headerSize {
				t.Fatalf("flip at %d: error not ErrBadFrame: %v", pos, err)
			}
		}
	}
}

func TestFrameTruncationRejected(t *testing.T) {
	frame := AppendFrame(nil, TypeGrant, []Msg{{Type: TypeGrant, Corr: 1, Session: "abc", Node: 2, WaitUS: 3}})
	for cut := 0; cut < len(frame); cut++ {
		if _, _, _, err := DecodeFrame(frame[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes decoded", cut)
		}
		// Stream reads of a truncated tail must also fail (EOF only
		// clean at a boundary).
		if cut > 0 {
			_, _, err := ReadFrame(bufio.NewReader(bytes.NewReader(frame[:cut])))
			if err == nil || err == io.EOF {
				t.Fatalf("stream truncation to %d bytes gave %v", cut, err)
			}
		}
	}
}

func TestFrameHeaderBoundsRejected(t *testing.T) {
	good := AppendFrame(nil, TypePing, []Msg{{Type: TypePing, Corr: 1}})

	cases := []struct {
		name string
		mut  func(b []byte)
	}{
		{"bad magic", func(b []byte) { b[0] = 0x00 }},
		{"zero type", func(b []byte) { b[1] = 0 }},
		{"unknown type", func(b []byte) { b[1] = byte(typeMax) }},
		{"zero count", func(b []byte) { b[2], b[3] = 0, 0 }},
		{"huge count", func(b []byte) { b[2], b[3] = 0xff, 0xff }},
		{"huge payload len", func(b []byte) { b[4], b[5], b[6], b[7] = 0xff, 0xff, 0xff, 0xff }},
	}
	for _, tc := range cases {
		mut := append([]byte(nil), good...)
		tc.mut(mut)
		if _, _, _, err := DecodeFrame(mut); err == nil {
			t.Errorf("%s: decoded", tc.name)
		}
		if _, _, err := ReadFrame(bufio.NewReader(bytes.NewReader(mut))); err == nil {
			t.Errorf("%s: stream decoded", tc.name)
		}
	}
}

func TestFrameBatchedEntries(t *testing.T) {
	entries := make([]Msg, 100)
	for i := range entries {
		entries[i] = Msg{Type: TypeAcquire, Corr: uint64(i + 1), Resources: []string{"edge"}, RingGen: 1}
	}
	buf := AppendFrame(nil, TypeAcquire, entries)
	_, got, _, err := DecodeFrame(buf)
	if err != nil {
		t.Fatalf("DecodeFrame: %v", err)
	}
	if !reflect.DeepEqual(got, entries) {
		t.Fatal("batched round trip mismatch")
	}
}

func TestAppendFramePanicsOnCallerBugs(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	mustPanic("invalid type", func() { AppendFrame(nil, 0, []Msg{{Corr: 1}}) })
	mustPanic("no entries", func() { AppendFrame(nil, TypePing, nil) })
	mustPanic("acquire without resources", func() {
		AppendFrame(nil, TypeAcquire, []Msg{{Corr: 1}})
	})
	mustPanic("oversized resource name", func() {
		AppendFrame(nil, TypeAcquire, []Msg{{Corr: 1, Resources: []string{strings.Repeat("x", maxResNameLen+1)}}})
	})
	mustPanic("oversized session", func() {
		AppendFrame(nil, TypeRelease, []Msg{{Corr: 1, Session: strings.Repeat("s", maxStringLen+1)}})
	})
}

// TestFrameGroupsSplitOversizedBatch drives a batch whose total
// encoding exceeds MaxPayload through frameGroups: every group must
// encode without panicking, stay within the payload bound, preserve
// order, and cover every entry.
func TestFrameGroupsSplitOversizedBatch(t *testing.T) {
	// 64 maximal acquires (64 resources x 512-byte names each encode
	// to ~33KB) total ~2.1MB — more than double MaxPayload.
	name := strings.Repeat("r", maxResNameLen)
	resources := make([]string, maxResources)
	for i := range resources {
		resources[i] = name
	}
	batch := make([]Msg, 64)
	for i := range batch {
		batch[i] = Msg{Type: TypeAcquire, Corr: uint64(i + 1), Resources: resources}
	}

	groups := frameGroups(nil, batch)
	if len(groups) < 2 {
		t.Fatalf("oversized batch produced %d group(s); expected a split", len(groups))
	}
	var wantCorr uint64 = 1
	for _, group := range groups {
		frame := AppendFrame(nil, group[0].Type, group)
		if len(frame) > headerSize+MaxPayload {
			t.Fatalf("group of %d entries encoded to %d bytes, past MaxPayload", len(group), len(frame))
		}
		_, decoded, _, err := DecodeFrame(frame)
		if err != nil {
			t.Fatalf("split frame failed to decode: %v", err)
		}
		for _, m := range decoded {
			if m.Corr != wantCorr {
				t.Fatalf("split reordered entries: corr %d where %d expected", m.Corr, wantCorr)
			}
			wantCorr++
		}
	}
	if wantCorr != uint64(len(batch))+1 {
		t.Fatalf("split dropped entries: %d of %d covered", wantCorr-1, len(batch))
	}

	// Mixed types still split into per-type runs.
	mixed := []Msg{
		{Type: TypePong, Corr: 1}, {Type: TypePong, Corr: 2},
		{Type: TypeReleased, Corr: 3},
		{Type: TypePong, Corr: 4},
	}
	if got := len(frameGroups(nil, mixed)); got != 3 {
		t.Fatalf("mixed-type batch produced %d groups, want 3", got)
	}
}

// TestMsgCheckBounds: Check must reject exactly the inputs AppendFrame
// would panic on, and accept maximal-but-legal entries.
func TestMsgCheckBounds(t *testing.T) {
	legal := Msg{Type: TypeAcquire, Resources: []string{strings.Repeat("x", maxResNameLen)}}
	if err := legal.Check(); err != nil {
		t.Fatalf("maximal legal acquire rejected: %v", err)
	}
	bad := []Msg{
		{Type: TypeAcquire},
		{Type: TypeAcquire, Resources: make([]string, maxResources+1)},
		{Type: TypeAcquire, Resources: []string{strings.Repeat("x", maxResNameLen+1)}},
		{Type: TypeRelease, Session: strings.Repeat("s", maxStringLen+1)},
		{Type: TypeError, Text: strings.Repeat("t", maxStringLen+1)},
	}
	for i := range bad {
		if err := bad[i].Check(); err == nil {
			t.Errorf("case %d: out-of-bounds entry passed Check", i)
		}
	}
}

// FuzzFrameRoundTrip drives the decoder with arbitrary bytes: it must
// never panic, and whenever a prefix decodes, re-encoding the decoded
// entries must produce a byte-identical frame (encode and decode are
// inverses on the valid subset).
func FuzzFrameRoundTrip(f *testing.F) {
	for typ, entries := range sampleEntries() {
		f.Add(AppendFrame(nil, typ, entries))
	}
	// Seeds that stress the validators rather than the happy path.
	f.Add([]byte{frameMagic})
	f.Add([]byte{frameMagic, TypeAcquire, 1, 0, 8, 0, 0, 0, 0, 0, 0, 0})
	f.Add(bytes.Repeat([]byte{frameMagic}, headerSize+16))

	f.Fuzz(func(t *testing.T, data []byte) {
		typ, entries, consumed, err := DecodeFrame(data)
		if err != nil {
			return
		}
		if consumed < headerSize || consumed > len(data) {
			t.Fatalf("consumed %d of %d", consumed, len(data))
		}
		re := AppendFrame(nil, typ, entries)
		if !bytes.Equal(re, data[:consumed]) {
			t.Fatalf("re-encode mismatch:\n in %x\nout %x", data[:consumed], re)
		}
		// The stream reader must agree with the buffer decoder.
		sTyp, sEntries, sErr := ReadFrame(bufio.NewReader(bytes.NewReader(data)))
		if sErr != nil || sTyp != typ || !reflect.DeepEqual(sEntries, entries) {
			t.Fatalf("ReadFrame disagrees with DecodeFrame: %v", sErr)
		}
	})
}

// TestCoalesceYieldsOnlyUnderConcurrency pins the write loops' batching
// rule on one processor, where a goroutine that is ready to queue an
// entry runs only if the writer yields: with nothing else in flight the
// batch leaves as it is (a lone caller's flush is never delayed), with
// more in flight than the batch holds one yield lets the ready entry in,
// and the entry cap and a closed queue end the drain.
func TestCoalesceYieldsOnlyUnderConcurrency(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ping := func(corr uint64) Msg { return Msg{Type: TypePing, Corr: corr} }
	var inflight atomic.Int64

	ch := make(chan Msg, 8)
	late := make(chan struct{})
	go func() { ch <- ping(2); close(late) }()
	inflight.Store(1)
	if got := coalesce([]Msg{ping(1)}, ch, 64, &inflight); len(got) != 1 {
		t.Fatalf("a lone caller's batch grew to %d entries: the writer yielded", len(got))
	}
	<-late

	ch = make(chan Msg, 8)
	ch <- ping(2)
	go func() { ch <- ping(3) }()
	inflight.Store(3)
	if got := coalesce([]Msg{ping(1)}, ch, 64, &inflight); len(got) != 3 {
		t.Fatalf("batch of %d entries with three operations in flight and one of them ready to queue, want 3", len(got))
	}

	ch = make(chan Msg, 8)
	for corr := uint64(2); corr <= 6; corr++ {
		ch <- ping(corr)
	}
	inflight.Store(64)
	if got := coalesce([]Msg{ping(1)}, ch, 4, &inflight); len(got) != 4 || len(ch) != 2 {
		t.Fatalf("batch of %d entries with %d left queued, want the cap of 4 and 2", len(got), len(ch))
	}
	close(ch)
	if got := coalesce([]Msg{ping(1)}, ch, 64, &inflight); len(got) != 3 {
		t.Fatalf("batch of %d entries from a closed queue holding two, want 3", len(got))
	}
}
