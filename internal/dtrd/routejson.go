package dtrd

import (
	"bytes"
	"math"
	"net/http"
	"strconv"
	"sync"

	"dualtopo/internal/spf"
)

// The /route request and response are the daemon's hot path: a controller
// scores one weight setting per call. This file parses the request's common
// shape and writes the response without reflection. Neither is a second
// codec: anything the fast decoder does not take goes through decode's
// encoding/json path, and a response the writer cannot write as writeJSON
// would goes through writeJSON, so the standard library stays the one
// specification (FuzzRouteJSON holds both to it).

// reset empties r for reuse, keeping its vectors' capacity.
func (r *RouteRequest) reset() {
	*r = RouteRequest{Weights: r.Weights[:0], WeightsHigh: r.WeightsHigh[:0], WeightsLow: r.WeightsLow[:0]}
}

// decodeFast parses data into r, which must be reset, when data is one JSON
// object whose members are the exactly spelled keys weights, weights_high
// and weights_low, each at most once, each a non-empty array of integers
// without null; whitespace may surround any token, and nothing but
// whitespace may follow the object. It reports whether it did; when it did
// not, r may be partly filled. On the shapes it takes, encoding/json with
// DisallowUnknownFields decodes exactly the same struct: it too hands each
// array's bytes to spf.Weights.UnmarshalJSON.
func (r *RouteRequest) decodeFast(data []byte) bool {
	i := skipWS(data, 0)
	if i == len(data) || data[i] != '{' {
		return false
	}
	i = skipWS(data, i+1)
	if i < len(data) && data[i] == '}' {
		return skipWS(data, i+1) == len(data)
	}
	for {
		if i == len(data) || data[i] != '"' {
			return false
		}
		end := bytes.IndexByte(data[i+1:], '"')
		if end < 0 {
			return false
		}
		key := data[i+1 : i+1+end]
		i = skipWS(data, i+2+end)
		if i == len(data) || data[i] != ':' {
			return false
		}
		i = skipWS(data, i+1)
		var w *spf.Weights
		switch string(key) {
		case "weights":
			w = &r.Weights
		case "weights_high":
			w = &r.WeightsHigh
		case "weights_low":
			w = &r.WeightsLow
		default:
			return false
		}
		// A vector already filled is a repeated key: every one taken is
		// non-empty.
		if len(*w) > 0 || i == len(data) || data[i] != '[' {
			return false
		}
		end = bytes.IndexByte(data[i:], ']')
		if end < 0 {
			return false
		}
		arr := data[i : i+end+1]
		if bytes.IndexByte(arr, 'n') >= 0 || w.UnmarshalJSON(arr) != nil || len(*w) == 0 {
			return false
		}
		i = skipWS(data, i+end+1)
		if i == len(data) {
			return false
		}
		if data[i] == '}' {
			return skipWS(data, i+1) == len(data)
		}
		if data[i] != ',' {
			return false
		}
		i = skipWS(data, i+1)
	}
}

// skipWS returns the offset of the first byte at or after i that is not
// JSON whitespace.
func skipWS(data []byte, i int) int {
	for i < len(data) && (data[i] == ' ' || data[i] == '\t' || data[i] == '\r' || data[i] == '\n') {
		i++
	}
	return i
}

// respPool holds the route writer's output buffers.
var respPool = sync.Pool{New: func() any { return new([]byte) }}

// writeRoute answers 200 with resp, byte-identical to writeJSON.
func writeRoute(w http.ResponseWriter, resp *RouteResponse) {
	bp := respPool.Get().(*[]byte)
	defer respPool.Put(bp)
	b, ok := appendRoute((*bp)[:0], resp)
	*bp = b
	if !ok {
		writeJSON(w, http.StatusOK, *resp)
		return
	}
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(http.StatusOK)
	w.Write(b) //nolint:errcheck // client gone mid-write
}

// appendRoute appends what json.Encoder with SetIndent("", "  ") writes for
// resp and reports whether it could: it declines a non-finite float, which
// encoding/json refuses to encode, and a scheme that encoding/json would
// escape.
func appendRoute(b []byte, resp *RouteResponse) ([]byte, bool) {
	for _, f := range [...]float64{resp.PhiH, resp.PhiL, resp.Lambda, resp.AvgUtilization, resp.MaxUtilization} {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return b, false
		}
	}
	for i := 0; i < len(resp.Scheme); i++ {
		if c := resp.Scheme[i]; c < ' ' || c > '~' || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return b, false
		}
	}
	b = append(b, "{\n  \"scheme\": \""...)
	b = append(b, resp.Scheme...)
	b = append(b, "\",\n  \"phi_h\": "...)
	b = appendJSONFloat(b, resp.PhiH)
	b = append(b, ",\n  \"phi_l\": "...)
	b = appendJSONFloat(b, resp.PhiL)
	b = append(b, ",\n  \"lambda\": "...)
	b = appendJSONFloat(b, resp.Lambda)
	b = append(b, ",\n  \"violations\": "...)
	b = strconv.AppendInt(b, int64(resp.Violations), 10)
	b = append(b, ",\n  \"avg_utilization\": "...)
	b = appendJSONFloat(b, resp.AvgUtilization)
	b = append(b, ",\n  \"max_utilization\": "...)
	b = appendJSONFloat(b, resp.MaxUtilization)
	return append(b, "\n}\n"...), true
}

// appendJSONFloat appends finite f as encoding/json writes a float64: the
// shortest 'f' form, or 'e' below 1e-6 and from 1e21 in magnitude with a
// one-digit negative exponent unpadded (e-7, not e-07).
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}
