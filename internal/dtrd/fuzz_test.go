package dtrd

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// fuzzEndpoints are the decoded bodies, indexed by FuzzDecodeRequests'
// selector: each endpoint's fixture prefix, body cap and request type.
var fuzzEndpoints = []struct {
	name  string
	limit int64
	req   func() any
}{
	{"route", maxWeightsBody, func() any { return new(RouteRequest) }},
	{"whatif", maxWeightsBody, func() any { return new(WhatIfRequest) }},
	{"load", maxParamBody, func() any { return new(LoadRequest) }},
	{"search", maxParamBody, func() any { return new(SearchRequest) }},
}

// decodeBody runs body through the handlers' own decode at the given cap,
// into a fresh request of the endpoint's type, and returns the request when
// it decoded and the recorded error response otherwise.
func decodeBody(newReq func() any, body []byte, limit int64) (any, *httptest.ResponseRecorder) {
	req := newReq()
	rec := httptest.NewRecorder()
	r := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body))
	if !decode(rec, r, limit, "fuzz", req) {
		return nil, rec
	}
	return req, rec
}

// FuzzDecodeRequests drives route, what-if, load and search bodies through
// decode at their endpoint's cap, the endpoint picked by the selector and
// seeded with testdata/<endpoint>_*request.json. decode must not panic; a
// body that decodes must re-encode to one that decodes to an equal request
// (compared by encoding, as omitempty folds empty vectors into absent ones);
// a refused body within the cap — among the seeds, each fixture followed by
// trailing data — answers 400 bad_request; and a body over
// the cap — or the same body under a cap one byte short — answers 413
// limit_exceeded.
func FuzzDecodeRequests(f *testing.F) {
	for i, ep := range fuzzEndpoints {
		paths, err := filepath.Glob(filepath.Join("testdata", ep.name+"_*request.json"))
		if err != nil || len(paths) == 0 {
			f.Fatalf("no %s request fixtures: %v", ep.name, err)
		}
		for _, p := range paths {
			body, err := os.ReadFile(p)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(uint8(i), body)
			f.Add(uint8(i), append(body, ` {"nonsense":[`...)) // trailing data: 400
		}
	}
	f.Fuzz(func(t *testing.T, sel uint8, body []byte) {
		ep := fuzzEndpoints[int(sel)%len(fuzzEndpoints)]
		refused := func(rec *httptest.ResponseRecorder, status int, code string) {
			t.Helper()
			var resp ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || rec.Code != status || resp.Error.Code != code {
				t.Fatalf("%s: refusal %d %q, want %d %s", ep.name, rec.Code, rec.Body.String(), status, code)
			}
		}
		req, rec := decodeBody(ep.req, body, ep.limit)
		switch {
		case int64(len(body)) > ep.limit:
			if req != nil {
				t.Fatalf("%s: %d-byte body decoded over the %d-byte cap", ep.name, len(body), ep.limit)
			}
			refused(rec, http.StatusRequestEntityTooLarge, CodeLimitExceeded)
			return
		case req == nil:
			refused(rec, http.StatusBadRequest, CodeBadRequest)
		default:
			enc, err := json.Marshal(req)
			if err != nil {
				t.Fatalf("%s: decoded %q does not re-encode: %v", ep.name, body, err)
			}
			// Marshal escapes <, > and & in strings, so the re-encoding of a
			// body near the cap may outgrow it: re-decode without one.
			again, rec := decodeBody(ep.req, enc, int64(len(enc)))
			if again == nil {
				t.Fatalf("%s: re-encoding %s of %q does not decode: %s", ep.name, enc, body, rec.Body.String())
			}
			if enc2, _ := json.Marshal(again); !bytes.Equal(enc, enc2) {
				t.Fatalf("%s: round trip of %q changed the request: %s, then %s", ep.name, body, enc, enc2)
			}
		}
		if len(body) > 0 {
			if req, rec := decodeBody(ep.req, body, int64(len(body)-1)); req != nil {
				t.Fatalf("%s: %d-byte body decoded under a %d-byte cap", ep.name, len(body), len(body)-1)
			} else {
				refused(rec, http.StatusRequestEntityTooLarge, CodeLimitExceeded)
			}
		}
	})
}

// routeShapes are route bodies and whether decodeFast takes them: the
// common shape with any whitespace, and the shapes it leaves to
// encoding/json, which may accept or refuse them.
var routeShapes = []struct {
	body string
	fast bool
}{
	{`{"weights":[1,2,3]}`, true},
	{" \t{ \"weights_high\" :\n[ 1 , 2 ] ,\r\"weights_low\":[3,-4] }\n ", true},
	{`{"weights_low":[5],"weights":[2147483647],"weights_high":[7]}`, true},
	{`{}`, true},
	{`{"Weights":[1]}`, false},                    // differently cased key
	{`{"weights":[1],"weights":[2]}`, false},      // repeated key
	{`{"weights":null}`, false},                   // null vector
	{`{"weights":[1,null]}`, false},               // null element
	{`{"weights":[]}`, false},                     // empty vector
	{`{"weight\u0073":[1]}`, false},               // escaped key
	{`{"weights":[1]} {}`, false},                 // trailing data
	{`{"weights":[1],"extra":0}`, false},          // unknown key
	{`{"weights":[1.5]}`, false},                  // not an integer
	{`{"weights":[1]`, false},                     // truncated
	{`{"weights":[1],}`, false},                   // trailing comma
	{`{"weights":[[1]]}`, false},                  // nested array
	{`{"weights":[99999999999999999999]}`, false}, // overflow
	{`[1,2]`, false},
	{``, false},
}

// TestRouteFastPathShapes pins which route bodies decodeFast takes, and that
// decode answers each as encoding/json alone does.
func TestRouteFastPathShapes(t *testing.T) {
	for _, tc := range routeShapes {
		if got := new(RouteRequest).decodeFast([]byte(tc.body)); got != tc.fast {
			t.Errorf("decodeFast(%q) = %v, want %v", tc.body, got, tc.fast)
		}
		req, rec := decodeBody(func() any { return new(RouteRequest) }, []byte(tc.body), maxWeightsBody)
		want := new(RouteRequest)
		if err := decodeJSON(bytes.NewBufferString(tc.body), want); (err == nil) != (req != nil) {
			t.Errorf("%q: decode answered %d %s, encoding/json err %v", tc.body, rec.Code, rec.Body, err)
		}
	}
}

// FuzzRouteJSON holds the /route fast paths to encoding/json. For any body,
// decode — which offers a route body to decodeFast first — must answer as
// decodeJSON alone does on a fresh request: both accept with equal vectors,
// or both refuse with the same status, code and message. For any response,
// writeRoute must write writeJSON's status, Content-Type and bytes; the
// floats are fuzzed as bits and seeded with 0, -0, 1e-7, 1e21, subnormals,
// the largest float64, NaN and ±Inf (where both write an empty body).
func FuzzRouteJSON(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("testdata", "route_*request.json"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no route request fixtures: %v", err)
	}
	var bodies [][]byte
	for _, p := range paths {
		body, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		bodies = append(bodies, body)
	}
	for _, s := range routeShapes {
		bodies = append(bodies, []byte(s.body))
	}
	floats := []float64{0, math.Copysign(0, -1), 1e-7, -1e-7, 1e-6, 1e21, 1e20, -1e21, 5e-324,
		math.SmallestNonzeroFloat64 * 3, 2.2250738585072014e-308, math.MaxFloat64, -math.MaxFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1), 0.1, 123456.789, 2.5e-9}
	for i, body := range bodies {
		bit := func(k int) uint64 { return math.Float64bits(floats[(i+k)%len(floats)]) }
		f.Add(body, []string{"str", "dtr", "a<b"}[i%3], i-3, bit(0), bit(1), bit(2), bit(3), bit(4))
	}
	for i, x := range floats {
		b := math.Float64bits(x)
		f.Add([]byte(`{}`), "dtr", i, b, b, b, b, b)
	}
	f.Fuzz(func(t *testing.T, body []byte, scheme string, violations int, h, l, lambda, avg, mx uint64) {
		got, rec := decodeBody(func() any { return new(RouteRequest) }, body, maxWeightsBody)
		want := new(RouteRequest)
		if err := decodeJSON(bytes.NewBuffer(body), want); err != nil {
			ref := httptest.NewRecorder()
			writeError(ref, http.StatusBadRequest, CodeBadRequest, "invalid fuzz request: "+err.Error())
			if got != nil || rec.Code != ref.Code || rec.Body.String() != ref.Body.String() {
				t.Fatalf("%q: decode answered %d %q, encoding/json refuses with %q", body, rec.Code, rec.Body.String(), ref.Body.String())
			}
		} else {
			r, ok := got.(*RouteRequest)
			if !ok || !slices.Equal(r.Weights, want.Weights) || !slices.Equal(r.WeightsHigh, want.WeightsHigh) ||
				!slices.Equal(r.WeightsLow, want.WeightsLow) {
				t.Fatalf("%q: decode gave %+v (%s), encoding/json %+v", body, got, rec.Body.String(), want)
			}
		}

		resp := RouteResponse{Scheme: scheme, Violations: violations,
			PhiH: math.Float64frombits(h), PhiL: math.Float64frombits(l), Lambda: math.Float64frombits(lambda),
			AvgUtilization: math.Float64frombits(avg), MaxUtilization: math.Float64frombits(mx)}
		fast, ref := httptest.NewRecorder(), httptest.NewRecorder()
		writeRoute(fast, &resp)
		writeJSON(ref, http.StatusOK, resp)
		if fast.Code != ref.Code || fast.Header().Get("Content-Type") != ref.Header().Get("Content-Type") ||
			!bytes.Equal(fast.Body.Bytes(), ref.Body.Bytes()) {
			t.Fatalf("%+v: writeRoute wrote %d %q, writeJSON %d %q", resp, fast.Code, fast.Body, ref.Code, ref.Body)
		}
	})
}
