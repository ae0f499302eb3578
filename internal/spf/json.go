package spf

import (
	"bytes"
	"fmt"
	"math"
)

// UnmarshalJSON parses a JSON array of integers into w without reflection,
// reusing w's capacity. It accepts exactly what encoding/json accepts into a
// []int: JSON whitespace around every token, integer literals that fit an int
// (no fraction, no exponent), null elements (decoded as 0) and a bare null
// (w becomes nil). On error w's length is unchanged and its contents are
// unspecified.
func (w *Weights) UnmarshalJSON(data []byte) error {
	i := skipSpace(data, 0)
	if end, ok := skipNull(data, i); ok {
		if end = skipSpace(data, end); end != len(data) {
			return jsonError(data, end)
		}
		*w = nil
		return nil
	}
	if i == len(data) || data[i] != '[' {
		return jsonError(data, i)
	}
	out := (*w)[:0]
	// A well-formed array holds one more element than it has commas.
	if n := bytes.Count(data, []byte{','}) + 1; cap(out) < n {
		out = make(Weights, 0, n)
	}
	i = skipSpace(data, i+1)
	if i < len(data) && data[i] == ']' {
		i++
	} else {
		for {
			v, end, err := parseElement(data, i)
			if err != nil {
				return err
			}
			out = append(out, v)
			i = skipSpace(data, end)
			if i < len(data) && data[i] == ']' {
				i++
				break
			}
			if i == len(data) || data[i] != ',' {
				return jsonError(data, i)
			}
			i = skipSpace(data, i+1)
		}
	}
	if i = skipSpace(data, i); i != len(data) {
		return jsonError(data, i)
	}
	*w = out
	return nil
}

// parseElement reads one array element at data[i:] — null or an integer
// literal in int range — and returns its value and the offset after it.
func parseElement(data []byte, i int) (v, end int, err error) {
	if end, ok := skipNull(data, i); ok {
		return 0, end, nil
	}
	limit := uint64(math.MaxInt)
	neg := i < len(data) && data[i] == '-'
	if neg {
		limit++
		i++
	}
	start := i
	var u uint64
	for ; i < len(data); i++ {
		d := data[i] - '0'
		if d > 9 {
			break
		}
		u = u*10 + uint64(d)
	}
	switch {
	case i == start, data[start] == '0' && i-start > 1: // no digits, or a leading zero
		return 0, 0, jsonError(data, i)
	case i < len(data) && (data[i] == '.' || data[i] == 'e' || data[i] == 'E'):
		return 0, 0, fmt.Errorf("spf: weights JSON: number at offset %d is not an integer", start)
	case i-start > 19 || u > limit: // 19 digits cannot wrap a uint64; 20 without a leading zero exceed any int
		return 0, 0, fmt.Errorf("spf: weights JSON: number at offset %d overflows int", start)
	}
	if neg {
		return int(-u), i, nil
	}
	return int(u), i, nil
}

// skipSpace returns the offset of the first byte at or after i that is not
// JSON whitespace; the leading <= ' ' settles every other byte in one compare.
func skipSpace(data []byte, i int) int {
	for i < len(data) && data[i] <= ' ' && (data[i] == ' ' || data[i] == '\n' || data[i] == '\t' || data[i] == '\r') {
		i++
	}
	return i
}

// skipNull reports whether data[i:] starts with the literal null and, if so,
// the offset after it.
func skipNull(data []byte, i int) (int, bool) {
	if i < len(data) && data[i] == 'n' && bytes.HasPrefix(data[i:], []byte("null")) {
		return i + 4, true
	}
	return i, false
}

func jsonError(data []byte, i int) error {
	if i >= len(data) {
		return fmt.Errorf("spf: weights JSON: unexpected end of input")
	}
	return fmt.Errorf("spf: weights JSON: unexpected %q at offset %d", data[i], i)
}
