package obs

import (
	"math"
	"strconv"
	"unicode/utf8"
)

// The exporters append their JSON by hand. These two helpers are the single
// definition of "as the standard library's JSON encoder writes it" (its
// defaults, HTML escaping on): the files this package wrote when it
// marshalled a struct per event and the files it writes now are the same
// bytes, which TestExportersMatchEncodingJSON holds against that encoder.

const hexDigits = "0123456789abcdef"

// appendJSONStringBody appends s escaped for the inside of a JSON string,
// without the quotes, so a name can be assembled from several pieces.
// Escaped: `"` and `\`; controls as \b \f \n \r \t or \u00XX; `<`, `>`, `&`
// as \u00XX; U+2028 and U+2029 as \u2028 and \u2029. A byte that is not
// valid UTF-8 becomes the six characters \ufffd.
func appendJSONStringBody(dst []byte, s string) []byte {
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			start = i + size
		}
		i += size
	}
	return append(dst, s[start:]...)
}

// appendJSONString appends s as a quoted JSON string.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	dst = appendJSONStringBody(dst, s)
	return append(dst, '"')
}

// appendJSONFloat appends x in the shortest form that reads back exactly:
// plain decimal, or exponent form (with e-07 cleaned up to e-7) below 1e-6
// and from 1e21. JSON has no NaN or infinity: for those ok is false and dst
// comes back as it was.
func appendJSONFloat(dst []byte, x float64) (_ []byte, ok bool) {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return dst, false
	}
	format := byte('f')
	if abs := math.Abs(x); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, x, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, true
}

// nonFinite names a value appendJSONFloat refused: "NaN", "+Inf" or "-Inf".
func nonFinite(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
