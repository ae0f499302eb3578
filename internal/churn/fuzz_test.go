package churn

import (
	"bytes"
	"reflect"
	"testing"

	"dualtopo/internal/eval"
)

// FuzzReadTrace feeds arbitrary JSONL to ReadTrace. It must never panic, and
// a trace it accepts, written back with WriteTrace, must re-read to an equal
// Timeline — horizon, event order and every field. Seeds: a generated
// timeline, a bare event stream without the header, blank lines, an unknown
// kind and a negative time.
func FuzzReadTrace(f *testing.F) {
	// A short generated timeline: long seeds make the fuzzer's input
	// minimization crawl.
	tl, err := Generate(testEval(f, eval.LoadBased, 1).Graph(), GenSpec{
		Seed: 3, Horizon: 40, LinkMTBF: 120, LinkMTTR: 5, NodeMTBF: 300, NodeMTTR: 10, WeightRate: 0.05,
	})
	if err != nil || len(tl.Events) < 3 {
		f.Fatalf("seed timeline: %d events, %v", len(tl.Events), err)
	}
	var gen bytes.Buffer
	if err := tl.WriteTrace(&gen); err != nil {
		f.Fatal(err)
	}
	f.Add(gen.Bytes())
	for _, s := range []string{
		`{"t":2,"kind":"link-up","target":"a-b"}` + "\n" + `{"t":1,"kind":"link-down","target":"a-b"}`,
		"\n\n" + `{"churn_trace":{"horizon_s":9,"events":1}}` + "\n\n" + `{"t":3,"kind":"weight-set","target":"a-b","wh":4}` + "\n \n",
		`{"t":1,"kind":"link-sideways","target":"a-b"}`,
		`{"t":-1,"kind":"node-down","target":"a"}`,
		`{"t":1,"kind":"link-down","target":"a-b"} {"t":2,"kind":"link-up","target":"a-b"}`,
		`{"churn_trace":{"horizon_s":9,"events":1}} {"nonsense":[` + "\n" + `{"t":1,"kind":"node-down","target":"a"}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		tl, err := ReadTrace(bytes.NewReader(in))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := tl.WriteTrace(&out); err != nil {
			t.Fatalf("accepted trace does not write: %v", err)
		}
		again, err := ReadTrace(&out)
		if err != nil {
			t.Fatalf("written trace %q does not re-read: %v", out.Bytes(), err)
		}
		if !reflect.DeepEqual(tl, again) {
			t.Fatalf("round trip changed the timeline:\n read    %+v\n re-read %+v", tl, again)
		}
	})
}
