package serve

import (
	"encoding/json"
	"testing"
)

// FuzzJobSpec feeds arbitrary bytes to the submit handler's decoder: decode
// plus Validate must never panic, and a spec they accept must re-encode and
// decode to an equal spec that still validates.
func FuzzJobSpec(f *testing.F) {
	for _, seed := range []string{
		`{"type":"design","tenant":"bench-0","seed":7,"quick":true}`,
		`{"type":"extract","model":"Angelov","max_evals":5000,"timeout_ms":60000}`,
		`{"type":"sweep","trials":50,"priority":-3,"dedupe_key":"k1"}`,
		`{"type":"extract","model":"Bogus"}`,
		`{"type":"design","seed":-1,"tenant":"a.b.c"} trailing`,
		`{"type":"design","trials":-1}`,
		`{"type":"sweep","quick":true,"trials":4611686018427387904}`,
		`{"type":"design","seed":1e400}`,
		"{\"type\":\"design\",\"tenant\":\"\xff\xfe<>&\"}",
		`{"type":"design","tenant":"\u0000\ud800"}`,
		`null`, `[]`, `not json`, ``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		spec, err := decodeJobSpec(body)
		if err != nil || spec.Validate() != nil {
			return
		}
		enc, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("accepted spec %+v does not encode: %v", spec, err)
		}
		again, err := decodeJobSpec(enc)
		if err != nil {
			t.Fatalf("re-encoded spec %s does not decode: %v", enc, err)
		}
		if again != spec {
			t.Fatalf("round trip changed the spec: %+v -> %s -> %+v", spec, enc, again)
		}
		if err := again.Validate(); err != nil {
			t.Fatalf("re-decoded spec %+v no longer validates: %v", again, err)
		}
	})
}
