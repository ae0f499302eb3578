package scenario

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzSpecLoad feeds arbitrary bytes to Load. It must never panic, and a
// spec it accepts must re-encode to JSON that loads back to the same spec.
// The encodings are compared, not the structs: an empty list and an absent
// one encode alike, and neither is a different campaign. Seeds: every
// example campaign, and one with data after the spec.
func FuzzSpecLoad(f *testing.F) {
	paths, err := filepath.Glob("../../examples/campaigns/*.json")
	if err != nil || len(paths) == 0 {
		f.Fatalf("example campaigns: %v (%d found)", err, len(paths))
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(append(data, ` {"bogus": [`...))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		s, err := Load(bytes.NewReader(in))
		if err != nil {
			return
		}
		enc, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("accepted spec does not encode: %v", err)
		}
		again, err := Load(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("encoded spec %s does not load: %v", enc, err)
		}
		if enc2, err := json.Marshal(again); err != nil || !bytes.Equal(enc, enc2) {
			t.Fatalf("round trip changed the spec:\n encoded   %s\n re-loaded %s (%v)", enc, enc2, err)
		}
	})
}

// TestLoadRefusesTrailingData: a valid campaign followed by anything but
// whitespace is refused, whitespace alone is not.
func TestLoadRefusesTrailingData(t *testing.T) {
	data, err := os.ReadFile("../../examples/campaigns/torus-uniform.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, tail := range []string{` {"bogus": [`, ` {}`, `]`, `x`, `"more"`} {
		if _, err := Load(strings.NewReader(string(data) + tail)); err == nil || !strings.Contains(err.Error(), "after the spec") {
			t.Errorf("tail %q: err = %v, want data after the spec refused", tail, err)
		}
	}
	if _, err := Load(strings.NewReader(string(data) + " \n\t\r\n")); err != nil {
		t.Fatalf("trailing whitespace refused: %v", err)
	}
}
