package obs

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"strconv"
	"time"
	"unicode/utf16"
	"unicode/utf8"
)

// The JSONL wire form of an Event is one object per line:
//
//	{"seq":N,"at_ns":N,"kind":"verus.epoch","flow":N,"run":N,"str":"…","v":[…]}
//
// Virtual time travels as integer nanoseconds and the kind as its dotted
// name, so the encoding round-trips exactly: ReadJSONL(WriteJSONL(events))
// == events. "str" is left out when empty. The six value slots are written
// as a trimmed array (trailing zero slots dropped, "v" left out when all are
// zero); reading restores the zeros.

// WriteJSONL writes events one JSON object per line. An event holding NaN
// or ±Inf cannot be written; the error names it.
func WriteJSONL(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	line := make([]byte, 0, 256)
	for i := range events {
		e := &events[i]
		line = append(line[:0], `{"seq":`...)
		line = strconv.AppendUint(line, e.Seq, 10)
		line = append(line, `,"at_ns":`...)
		line = strconv.AppendInt(line, int64(e.At), 10)
		line = append(line, `,"kind":`...)
		line = appendJSONString(line, e.Kind.String())
		line = append(line, `,"flow":`...)
		line = strconv.AppendInt(line, int64(e.Flow), 10)
		line = append(line, `,"run":`...)
		line = strconv.AppendInt(line, e.Run, 10)
		if e.Str != "" {
			line = append(line, `,"str":`...)
			line = appendJSONString(line, e.Str)
		}
		v := e.values()
		n := len(v)
		for n > 0 && v[n-1] == 0 {
			n--
		}
		for slot, x := range v[:n] {
			if slot == 0 {
				line = append(line, `,"v":[`...)
			} else {
				line = append(line, ',')
			}
			var ok bool
			if line, ok = appendJSONFloat(line, x); !ok {
				return fmt.Errorf("obs: jsonl: event seq %d (%v): value slot %d is %s", e.Seq, e.Kind, slot, nonFinite(x))
			}
		}
		if n > 0 {
			line = append(line, ']')
		}
		line = append(line, '}', '\n')
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSONL parses a JSONL event stream written by WriteJSONL, reporting
// the first bad line with its 1-based number. Empty lines are skipped. Every
// other line must be exactly one JSON object and nothing else:
//
//   - keys are exactly seq, at_ns, kind, flow, run, str, v — in any order,
//     each at most once, spelled in lower case with no escapes; the first
//     five are required;
//   - seq, at_ns, flow and run are integer literals (no fraction, no
//     exponent) that fit uint64, int64, int32 and int64;
//   - kind is a registered dotted kind name;
//   - v is an array of at most six JSON numbers (older traces carry four);
//   - strings take the RFC 8259 escapes, surrogate pairs included; a lone
//     surrogate, a raw control byte or invalid UTF-8 is an error;
//   - null is accepted nowhere, and only RFC 8259 whitespace may follow the
//     closing brace.
func ReadJSONL(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 32*1024), 1<<20)
	// Events are parsed in place into fixed-size chunks and copied once into
	// a result of the exact size. Left to append, the result of a 65536-event
	// trace is reallocated some forty times, 4.7 times its final size in all,
	// and the abandoned arrays stay resident until the collector next runs.
	var full [][]Event
	var chunk []Event
	var p lineParser
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		if len(chunk) == cap(chunk) {
			if chunk != nil {
				full = append(full, chunk)
			}
			chunk = make([]Event, 0, readChunk)
		}
		chunk = chunk[:len(chunk)+1]
		if err := p.parse(raw, &chunk[len(chunk)-1]); err != nil {
			return nil, fmt.Errorf("obs: jsonl line %d: %w", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: jsonl: %w", err)
	}
	if full == nil {
		return chunk, nil
	}
	out := make([]Event, 0, len(full)*readChunk+len(chunk))
	for _, c := range full {
		out = append(out, c...)
	}
	return append(out, chunk...), nil
}

// readChunk is the number of events ReadJSONL parses between allocations
// (27 KB worth).
const readChunk = 256

// lineParser reads one line of the fixed seven-key schema in a single pass.
// It allocates nothing of its own: strings without escapes are slices of the
// line, and the others are unescaped into scratch, which the next string
// reuses.
type lineParser struct {
	b       []byte
	i       int
	scratch []byte
}

// jsonlKeys are the member names, the required ones first. A key is known
// by its index here; parse keeps one bit per index to catch duplicates and
// missing keys.
var jsonlKeys = [...]string{"seq", "at_ns", "kind", "flow", "run", "str", "v"}

const (
	keySeq = iota
	keyAtNs
	keyKind
	keyFlow
	keyRun
	keyStr
	keyV

	requiredKeys = 1<<keyStr - 1 // the bits of the first five
)

func (p *lineParser) parse(line []byte, e *Event) error {
	p.b, p.i = line, 0
	p.skipSpace()
	if err := p.expect('{'); err != nil {
		return err
	}
	p.skipSpace()
	var seen uint8
	for first := true; !p.eat('}'); first = false {
		if !first {
			if err := p.expect(','); err != nil {
				return err
			}
			p.skipSpace()
		}
		key, err := p.key()
		if err != nil {
			return err
		}
		if seen&(1<<key) != 0 {
			return fmt.Errorf("duplicate key %q", jsonlKeys[key])
		}
		seen |= 1 << key
		p.skipSpace()
		if err := p.expect(':'); err != nil {
			return err
		}
		p.skipSpace()
		if err := p.value(key, e); err != nil {
			return err
		}
		p.skipSpace()
	}
	p.skipSpace()
	if p.i != len(p.b) {
		return fmt.Errorf("trailing bytes after the object at byte %d", p.i)
	}
	if missing := requiredKeys &^ seen; missing != 0 {
		return fmt.Errorf("missing key %q", jsonlKeys[bits.TrailingZeros8(missing)])
	}
	return nil
}

// key reads a member name and returns its index in jsonlKeys.
func (p *lineParser) key() (int, error) {
	if err := p.expect('"'); err != nil {
		return 0, err
	}
	start := p.i
	for p.i < len(p.b) && p.b[p.i] != '"' {
		p.i++
	}
	if p.i == len(p.b) {
		return 0, fmt.Errorf("unterminated key at byte %d", start-1)
	}
	name := p.b[start:p.i]
	p.i++
	for i, k := range jsonlKeys {
		if string(name) == k {
			return i, nil
		}
	}
	return 0, fmt.Errorf("unknown key %.40q", name)
}

// value reads the value of the given key into e.
func (p *lineParser) value(key int, e *Event) error {
	switch key {
	case keySeq:
		neg, mag, err := p.integer()
		if err != nil {
			return err
		}
		if neg {
			return errors.New("seq is negative")
		}
		e.Seq = mag
	case keyAtNs:
		n, err := p.signed(key, math.MaxInt64)
		e.At = time.Duration(n)
		return err
	case keyFlow:
		n, err := p.signed(key, math.MaxInt32)
		e.Flow = int32(n)
		return err
	case keyRun:
		n, err := p.signed(key, math.MaxInt64)
		e.Run = n
		return err
	case keyKind:
		name, err := p.str()
		if err != nil {
			return err
		}
		k, ok := kindByName[string(name)]
		if !ok {
			return fmt.Errorf("unknown event kind %.40q", name)
		}
		e.Kind = k
	case keyStr:
		s, err := p.str()
		if err != nil {
			return err
		}
		e.Str = string(s)
	case keyV:
		return p.values(e)
	}
	return nil
}

// signed reads the given key's integer literal, within [-max-1, max].
func (p *lineParser) signed(key int, max uint64) (int64, error) {
	neg, mag, err := p.integer()
	if err != nil {
		return 0, err
	}
	if neg {
		if mag > max+1 {
			return 0, fmt.Errorf("%s out of range", jsonlKeys[key])
		}
		return int64(-mag), nil
	}
	if mag > max {
		return 0, fmt.Errorf("%s out of range", jsonlKeys[key])
	}
	return int64(mag), nil
}

// integer reads a JSON number that is an integer literal: an optional minus,
// then 0 or a digit string without a leading zero, and no fraction or
// exponent after it.
func (p *lineParser) integer() (neg bool, mag uint64, err error) {
	start := p.i
	neg = p.eat('-')
	digits := p.i
	for ; p.i < len(p.b) && isDigit(p.b[p.i]); p.i++ {
		d := uint64(p.b[p.i] - '0')
		if mag > (math.MaxUint64-d)/10 {
			return false, 0, fmt.Errorf("integer at byte %d out of range", start)
		}
		mag = mag*10 + d
	}
	switch {
	case p.i == digits:
		return false, 0, fmt.Errorf("expected an integer at byte %d", start)
	case p.b[digits] == '0' && p.i > digits+1:
		return false, 0, fmt.Errorf("integer at byte %d has a leading zero", start)
	case p.i < len(p.b) && (p.b[p.i] == '.' || p.b[p.i] == 'e' || p.b[p.i] == 'E'):
		return false, 0, fmt.Errorf("number at byte %d is not an integer literal", start)
	}
	return neg, mag, nil
}

// values reads the "v" array into e's value slots.
func (p *lineParser) values(e *Event) error {
	if err := p.expect('['); err != nil {
		return err
	}
	p.skipSpace()
	slots := [6]*float64{&e.V0, &e.V1, &e.V2, &e.V3, &e.V4, &e.V5}
	for n := 0; !p.eat(']'); n++ {
		if n > 0 {
			if err := p.expect(','); err != nil {
				return err
			}
			p.skipSpace()
		}
		if n == len(slots) {
			return fmt.Errorf("more than %d value slots", len(slots))
		}
		x, err := p.number()
		if err != nil {
			return err
		}
		*slots[n] = x
		p.skipSpace()
	}
	return nil
}

// number reads a JSON number: -? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?
func (p *lineParser) number() (float64, error) {
	start := p.i
	p.eat('-')
	if p.eat('0') {
		if p.i < len(p.b) && isDigit(p.b[p.i]) {
			return 0, fmt.Errorf("number at byte %d has a leading zero", start)
		}
	} else if !p.digits() {
		return 0, fmt.Errorf("expected a number at byte %d", start)
	}
	if p.eat('.') && !p.digits() {
		return 0, fmt.Errorf("number at byte %d has no digits after the point", start)
	}
	if p.eat('e') || p.eat('E') {
		if !p.eat('+') {
			p.eat('-')
		}
		if !p.digits() {
			return 0, fmt.Errorf("number at byte %d has no digits in its exponent", start)
		}
	}
	x, err := strconv.ParseFloat(string(p.b[start:p.i]), 64)
	if err != nil {
		return 0, fmt.Errorf("number at byte %d out of range", start)
	}
	return x, nil
}

// digits consumes a run of digits and reports whether there was one.
func (p *lineParser) digits() bool {
	start := p.i
	for p.i < len(p.b) && isDigit(p.b[p.i]) {
		p.i++
	}
	return p.i > start
}

// str reads a JSON string. Without an escape the result is the line's own
// bytes; with one it is scratch. Either way it is valid until the next call.
func (p *lineParser) str() ([]byte, error) {
	if err := p.expect('"'); err != nil {
		return nil, err
	}
	start := p.i
	unescaping := false
	for p.i < len(p.b) {
		c := p.b[p.i]
		switch {
		case c == '"':
			p.i++
			if unescaping {
				return p.scratch, nil
			}
			return p.b[start : p.i-1], nil
		case c == '\\':
			if !unescaping {
				p.scratch = append(p.scratch[:0], p.b[start:p.i]...)
				unescaping = true
			}
			if err := p.escape(); err != nil {
				return nil, err
			}
		case c < ' ':
			return nil, fmt.Errorf("control byte in a string at byte %d", p.i)
		default:
			size := 1
			if c >= utf8.RuneSelf {
				var r rune
				if r, size = utf8.DecodeRune(p.b[p.i:]); r == utf8.RuneError && size == 1 {
					return nil, fmt.Errorf("invalid UTF-8 in a string at byte %d", p.i)
				}
			}
			if unescaping {
				p.scratch = append(p.scratch, p.b[p.i:p.i+size]...)
			}
			p.i += size
		}
	}
	return nil, fmt.Errorf("unterminated string at byte %d", start-1)
}

// escape appends to scratch the character the escape at p.i stands for.
func (p *lineParser) escape() error {
	at := p.i
	p.i++ // the backslash
	if p.i == len(p.b) {
		return fmt.Errorf("unterminated escape at byte %d", at)
	}
	c := p.b[p.i]
	p.i++
	switch c {
	case '"', '\\', '/':
	case 'b':
		c = '\b'
	case 'f':
		c = '\f'
	case 'n':
		c = '\n'
	case 'r':
		c = '\r'
	case 't':
		c = '\t'
	case 'u':
		r, ok := p.hex4()
		if !ok {
			return fmt.Errorf("bad \\u escape at byte %d", at)
		}
		if utf16.IsSurrogate(r) {
			// Only a high half with an escaped low half behind it is a
			// character; DecodeRune answers U+FFFD for anything else.
			var lo rune
			if p.eat('\\') && p.eat('u') {
				lo, _ = p.hex4()
			}
			if r = utf16.DecodeRune(r, lo); r == utf8.RuneError {
				return fmt.Errorf("lone surrogate in a string at byte %d", at)
			}
		}
		p.scratch = utf8.AppendRune(p.scratch, r)
		return nil
	default:
		return fmt.Errorf("bad escape at byte %d", at)
	}
	p.scratch = append(p.scratch, c)
	return nil
}

// hex4 reads the four hex digits of a \u escape.
func (p *lineParser) hex4() (rune, bool) {
	if len(p.b)-p.i < 4 {
		return 0, false
	}
	var r rune
	for _, c := range p.b[p.i : p.i+4] {
		switch {
		case isDigit(c):
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	p.i += 4
	return r, true
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// skipSpace skips RFC 8259 whitespace.
func (p *lineParser) skipSpace() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\r', '\n':
			p.i++
		default:
			return
		}
	}
}

// eat consumes c if it is the next byte.
func (p *lineParser) eat(c byte) bool {
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// expect consumes c or reports what stands in its place.
func (p *lineParser) expect(c byte) error {
	if p.eat(c) {
		return nil
	}
	if p.i == len(p.b) {
		return fmt.Errorf("expected %q at byte %d, found the end of the line", c, p.i)
	}
	return fmt.Errorf("expected %q at byte %d, found %q", c, p.i, p.b[p.i])
}
