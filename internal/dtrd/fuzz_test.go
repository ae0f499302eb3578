package dtrd

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
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
