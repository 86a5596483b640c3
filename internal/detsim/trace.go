package detsim

import (
	"encoding/binary"
	"fmt"

	"mcdp/internal/core"
	"mcdp/internal/graph"
	"mcdp/internal/msgpass"
)

// trace is one run's event log. Every event folds into a 64-bit FNV-1a
// hash as its format string and its typed arguments — never as text —
// and is formatted only when the run keeps its trace (Config.Trace and
// friends), whose lines are then exactly fmt.Sprintf(format, args...).
// Two runs with equal hashes executed the same events. The encoding is
// unambiguous: the format and every string are length-prefixed, every
// argument carries a type tag, and each event starts with its argument
// count, so no two different event sequences encode alike.
//
// A nil *trace records nothing: a runner whose trace nothing reads has
// none.
type trace struct {
	hash  uint64
	keep  bool
	lines []string
	buf   []byte // the event being encoded, reused
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func newTrace(keep bool) *trace { return &trace{hash: fnvOffset64, keep: keep} }

// event records one event.
func (t *trace) event(format string, args ...any) {
	if t == nil {
		return
	}
	b := appendTraceString(t.buf[:0], format)
	b = binary.AppendUvarint(b, uint64(len(args)))
	for _, a := range args {
		b = appendTraceArg(b, a)
	}
	h := t.hash
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	t.hash, t.buf = h, b
	if t.keep {
		t.lines = append(t.lines, fmt.Sprintf(format, args...))
	}
}

// sum returns the trace hash.
func (t *trace) sum() uint64 { return t.hash }

// Argument type tags.
const (
	tagInt byte = iota + 1
	tagInt64
	tagBool
	tagString
	tagProcID
	tagState
	tagInts
	tagStrings
	tagFrame
	tagForkFrame
	tagOther
)

func appendTraceString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// appendTraceArg appends one argument's tag and value. The types the
// harnesses trace on every step have their own cases, and so does
// []string, whose text would not be unambiguous ("[a b]" is both
// {"a b"} and {"a", "b"}); anything else is hashed as its type and
// text, which is unambiguous too, only slower.
func appendTraceArg(b []byte, a any) []byte {
	switch v := a.(type) {
	case int:
		return binary.AppendVarint(append(b, tagInt), int64(v))
	case int64:
		return binary.AppendVarint(append(b, tagInt64), v)
	case bool:
		if v {
			return append(b, tagBool, 1)
		}
		return append(b, tagBool, 0)
	case string:
		return appendTraceString(append(b, tagString), v)
	case graph.ProcID:
		return binary.AppendVarint(append(b, tagProcID), int64(v))
	case core.State:
		return append(b, tagState, byte(v))
	case []int:
		b = binary.AppendUvarint(append(b, tagInts), uint64(len(v)))
		for _, x := range v {
			b = binary.AppendVarint(b, int64(x))
		}
		return b
	case []string:
		b = binary.AppendUvarint(append(b, tagStrings), uint64(len(v)))
		for _, s := range v {
			b = appendTraceString(b, s)
		}
		return b
	case msgpass.Frame:
		b, _ = v.AppendBinary(append(b, tagFrame))
		return b
	case msgpass.ForkFrame:
		b, _ = v.AppendBinary(append(b, tagForkFrame))
		return b
	default:
		return appendTraceString(append(b, tagOther), fmt.Sprintf("%T %v", v, v))
	}
}
