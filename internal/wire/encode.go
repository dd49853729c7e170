package wire

import (
	"strconv"
	"unicode/utf8"
)

// The encode half of decode.go's codec tables: each entry's emit appends
// its field's value, and the bytes are json.Marshal's exactly (snapshots
// are compared across builds; FuzzEncodeMatchesMarshal holds
// every table to it, DESIGN.md §16). Only the caller's buffer allocates.

// encode appends v as an object, keys in table order. An emit that appends
// nothing omits its key (a JSON value is never empty): that is omitempty.
func (c codec[T]) encode(b []byte, v *T) []byte {
	b = append(b, '{')
	first := len(b)
	for i := range c {
		at := len(b)
		if at > first {
			b = append(b, ',')
		}
		b = append(append(append(b, '"'), c[i].key...), '"', ':')
		n := len(b)
		if b = c[i].emit(b, v); len(b) == n {
			b = b[:at]
		}
	}
	return append(b, '}')
}

func num[N int | int32 | int64](b []byte, n N) []byte { return strconv.AppendInt(b, int64(n), 10) }

func unum[N uint8 | uint16 | uint64](b []byte, n N) []byte {
	return strconv.AppendUint(b, uint64(n), 10)
}

// opt is an emit's omitempty form: the zero value (a nil pointer) appends nothing.
func opt[V comparable](b []byte, v V, emit func([]byte, V) []byte) []byte {
	if v == *new(V) {
		return b
	}
	return emit(b, v)
}

// optList appends s as an array; an empty s is omitted, as every list field is.
func optList[T any](b []byte, s []T, elem codec[T]) []byte {
	if len(s) == 0 {
		return b
	}
	sep := byte('[')
	for i := range s {
		b = elem.encode(append(b, sep), &s[i])
		sep = ','
	}
	return append(b, ']')
}

// text appends s as json.Marshal quotes a string: '"' and '\\' escaped,
// control bytes as \b \t \n \f \r or \u00XX, '<' '>' '&' U+2028 U+2029 as
// \u escapes (HTML and JSONP safety), invalid UTF-8 bytes as \ufffd.
func text(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c >= ' ' && c < utf8.RuneSelf && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
			i++
			continue
		}
		r, size := rune(c), 1
		if c >= utf8.RuneSelf {
			if r, size = utf8.DecodeRuneInString(s[i:]); size > 1 && r != '\u2028' && r != '\u2029' {
				i += size
				continue
			}
		}
		b = append(b, s[start:i]...)
		switch {
		case c == '"' || c == '\\':
			b = append(b, '\\', c)
		case c == '\b' || c == '\t' || c == '\n' || c == '\f' || c == '\r':
			b = append(b, '\\', "btn-fr"[c-'\b']) // from '\b'; '\v' has no name
		case r == utf8.RuneError:
			b = append(b, `\ufffd`...)
		default: // another control byte, an HTML byte, U+2028 or U+2029
			b = append(b, '\\', 'u', hex[r>>12], hex[r>>8&0xf], hex[r>>4&0xf], hex[r&0xf])
		}
		i += size
		start = i
	}
	return append(append(b, s[start:]...), '"')
}

// AppendMessage appends m as one protocol line, without the newline.
func AppendMessage(b []byte, m *Message) []byte { return messageCodec.encode(b, m) }

// AppendSnapshot appends s as a snapshot file's body, without the newline.
func AppendSnapshot(b []byte, s *Snapshot) []byte { return snapshotCodec.encode(b, s) }

// AppendReply appends r as one reply line, without the newline.
func AppendReply(b []byte, r *ReplyLine) []byte { return replyLineCodec.encode(b, r) }
