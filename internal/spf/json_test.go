package spf

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// FuzzWeightsUnmarshalJSON holds Weights.UnmarshalJSON to encoding/json's
// behaviour on []int: for any bytes both accept or both reject, and when they
// accept they hold the same elements — decoded once into a nil receiver and
// once over a longer, dirty one. Seeds: the edge cases by hand, plus every
// request file under internal/dtrd/testdata and examples/dtrd, whole (an
// object: both reject) and field by field (the weight arrays).
func FuzzWeightsUnmarshalJSON(f *testing.F) {
	for _, s := range []string{
		`[]`, `[1,2,3]`, ` [ 1 , 2 ]`, "\t[\r\n1\n]\n", `null`, ` null `, `[null]`, `[1,null,3]`,
		`[-1]`, `[-0]`, `[0]`, `[2147483647]`, `[9223372036854775807]`, `[-9223372036854775808]`,
		`[9223372036854775808]`, `[-9223372036854775809]`, `[12345678901234567890]`,
		`[1.0]`, `[1e2]`, `[1E2]`, `[-1.5e-3]`, `[01]`, `[+1]`, `[-]`, `[1,]`, `[,1]`, `[1 2]`,
		`[[1]]`, `[1,[2]]`, `["1"]`, `[true]`, `[{}]`, `{}`, `"x"`, `1`, `nul`, `nullx`, `[nul]`,
		`[1]x`, `[1] [2]`, `[`, `[1`, `[1,`, ``, ` `,
	} {
		f.Add([]byte(s))
	}
	for _, pattern := range []string{"../dtrd/testdata/*_request.json", "../../examples/dtrd/*.json"} {
		files, err := filepath.Glob(pattern)
		if err != nil || len(files) == 0 {
			f.Fatalf("seed corpus %s: %d files, err %v", pattern, len(files), err)
		}
		for _, name := range files {
			body, err := os.ReadFile(name)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(body)
			var fields map[string]json.RawMessage
			if json.Unmarshal(body, &fields) == nil {
				for _, raw := range fields {
					f.Add([]byte(raw))
				}
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var want []int
		wantErr := json.Unmarshal(data, &want)
		dirty := Weights{7, 7, 7, 7, 7, 7, 7, 7}
		for _, got := range []Weights{nil, dirty} {
			err := got.UnmarshalJSON(data)
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("%q: Weights error %v, encoding/json error %v", data, err, wantErr)
			}
			if err == nil && ((got == nil) != (want == nil) || !slices.Equal(got, Weights(want))) {
				t.Fatalf("%q: Weights %v, encoding/json %v", data, got, want)
			}
		}
	})
}

// TestWeightsUnmarshalJSONReusesCapacity pins what the daemon's pooled
// requests rely on: decoding through encoding/json into a receiver that is
// already large enough allocates nothing for the vector and keeps its backing
// array.
func TestWeightsUnmarshalJSONReusesCapacity(t *testing.T) {
	body, err := json.Marshal(Uniform(150))
	if err != nil {
		t.Fatal(err)
	}
	w := make(Weights, 0, 150)
	first := &w[:1][0]
	if allocs := testing.AllocsPerRun(100, func() {
		if err := w.UnmarshalJSON(body); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("warm UnmarshalJSON allocates %v times, want 0", allocs)
	}
	if len(w) != 150 || &w[0] != first {
		t.Errorf("len %d, backing array moved: %v", len(w), &w[0] != first)
	}
	var viaJSON struct{ W Weights }
	if err := json.Unmarshal([]byte(`{"W":[3, 1,2]}`), &viaJSON); err != nil || !slices.Equal(viaJSON.W, Weights{3, 1, 2}) {
		t.Errorf("through encoding/json: %v, %v", viaJSON.W, err)
	}
}

// BenchmarkWeightsUnmarshalJSON is the parser's micro-series: a 150-arc
// vector in [1, 30] (the route-small request shape) into a warm receiver,
// beside encoding/json's reflective []int decode of the same bytes.
func BenchmarkWeightsUnmarshalJSON(b *testing.B) {
	w := make(Weights, 150)
	for i := range w {
		w[i] = 1 + i%30
	}
	body, err := json.Marshal(w)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("weights", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := w.UnmarshalJSON(body); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		ints := make([]int, 150)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := json.Unmarshal(body, &ints); err != nil {
				b.Fatal(err)
			}
		}
	})
}
