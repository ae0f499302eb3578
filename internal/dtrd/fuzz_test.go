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

// decodeBody runs body through the handlers' own decode at the given cap,
// into a fresh request of the endpoint's type, and returns the request when
// it decoded and the recorded error response otherwise.
func decodeBody(route bool, body []byte, limit int64) (any, *httptest.ResponseRecorder) {
	var req any = new(WhatIfRequest)
	if route {
		req = new(RouteRequest)
	}
	rec := httptest.NewRecorder()
	r := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body))
	if !decode(rec, r, limit, "fuzz", req) {
		return nil, rec
	}
	return req, rec
}

// FuzzDecodeRequests drives route and what-if bodies through decode, seeded
// with testdata/*_request.json of both endpoints. decode must not panic; a
// body that decodes must re-encode to one that decodes to an equal request
// (compared by encoding, as omitempty folds empty vectors into absent ones);
// a refused body answers 400 bad_request; and the same body over the cap
// answers 413 limit_exceeded.
func FuzzDecodeRequests(f *testing.F) {
	for _, prefix := range []string{"route", "whatif"} {
		paths, err := filepath.Glob(filepath.Join("testdata", prefix+"_*request.json"))
		if err != nil || len(paths) == 0 {
			f.Fatalf("no %s request fixtures: %v", prefix, err)
		}
		for _, p := range paths {
			body, err := os.ReadFile(p)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(prefix == "route", body)
		}
	}
	f.Fuzz(func(t *testing.T, route bool, body []byte) {
		refused := func(rec *httptest.ResponseRecorder, status int, code string) {
			t.Helper()
			var resp ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || rec.Code != status || resp.Error.Code != code {
				t.Fatalf("refusal %d %q, want %d %s", rec.Code, rec.Body.String(), status, code)
			}
		}
		req, rec := decodeBody(route, body, maxWeightsBody)
		if req == nil {
			refused(rec, http.StatusBadRequest, CodeBadRequest)
		} else {
			enc, err := json.Marshal(req)
			if err != nil {
				t.Fatalf("decoded %q does not re-encode: %v", body, err)
			}
			again, rec := decodeBody(route, enc, maxWeightsBody)
			if again == nil {
				t.Fatalf("re-encoding %s of %q does not decode: %s", enc, body, rec.Body.String())
			}
			if enc2, _ := json.Marshal(again); !bytes.Equal(enc, enc2) {
				t.Fatalf("round trip of %q changed the request: %s, then %s", body, enc, enc2)
			}
		}
		if len(body) > 0 {
			if req, rec := decodeBody(route, body, int64(len(body)-1)); req != nil {
				t.Fatalf("%d-byte body decoded under a %d-byte cap", len(body), len(body)-1)
			} else {
				refused(rec, http.StatusRequestEntityTooLarge, CodeLimitExceeded)
			}
		}
	})
}
