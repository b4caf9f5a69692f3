// Package jsonenc appends JSON strings and numbers with exactly the
// bytes encoding/json writes for them under SetEscapeHTML(false). It
// is the one escaper behind the fixed-schema frame responses: the web
// layer writes its fields with it, and the SVG writer escapes the
// diagram's text with it while the markup is written.
package jsonenc

import (
	"errors"
	"math"
	"strconv"
	"unicode/utf8"
)

const hexDigits = "0123456789abcdef"

// AppendString appends s as a quoted JSON string.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	dst = AppendEscaped(dst, s)
	return append(dst, '"')
}

// AppendEscaped appends the contents of the JSON string for s, without
// the quotes. Printable ASCII other than '"' and '\\' is copied as is.
// '"', '\\' and the control bytes \b, \f, \n, \r, \t get their short
// escapes, other control bytes \u00XX. An invalid UTF-8 byte becomes
// \ufffd, and U+2028 and U+2029 are escaped for JavaScript.
func AppendEscaped(dst []byte, s string) []byte {
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
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
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&15])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&15])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(dst, s[start:]...)
}

// AppendFloat appends f in the ES6 number format encoding/json uses:
// the shortest round-trip decimal, in exponent form below 1e-6 and at
// or above 1e21 with a one-digit exponent unpadded (1e-7, not 1e-07).
// NaN and ±Inf have no JSON form and return an error.
func AppendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return dst, errors.New("json: unsupported value: " + strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}
