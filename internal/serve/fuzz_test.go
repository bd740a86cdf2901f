package serve

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzMissionSpec throws arbitrary bytes at the spec pipeline and holds
// it to the codec contract the cache depends on:
//
//   - DecodeSpec never panics: garbage is an error, not a crash;
//   - Normalize is idempotent: normalize(x) == normalize(normalize(x)),
//     so there is exactly one canonical form per mission;
//   - a spec that validates digests, and its canonical bytes round-trip:
//     decode(canonical(x)) re-normalizes and re-validates to the same
//     digest — the property that makes the digest a stable address
//     rather than an accident of field ordering;
//   - a spec that validates runs: at side ≤ 16 (floods: at most 1024
//     nodes) Execute returns a result or an error, never panics, so every
//     engine panic a spec can reach is refused by Validate first.
//
// `make fuzz` runs this alongside the wire/trace/shard targets.
func FuzzMissionSpec(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"workload":"labeling","side":4,"seed":7,"trace":true}`))
	f.Add([]byte(`{"engine":"shard","shards":4,"workers":2,"workload":"flood","side":4,"density":4,"floods":2,"seed":5,"loss":0.1}`))
	f.Add([]byte(`{"workload":"flood","side":8,"burst":{"p_good_bad":0.1,"p_bad_good":0.5,"loss_bad":0.9}}`))
	f.Add([]byte(`{"workload":"labeling","side":16,"field":"gradient","thresh":0.25,"crash_frac":0.2,"churn_rate":1.5,"duty_period":8,"duty_on":3,"capacity":500,"deplete":true}`))
	f.Add([]byte(`{"side":5}`))
	f.Add([]byte(`{"loss":1e999}`))
	f.Add([]byte(`{"workload":"labeling"} trailing`))
	f.Add([]byte(`{"wrokload":"labeling"}`))
	f.Add([]byte(`{"engine":"shard","shards":3,"workers":2,"workload":"labeling","side":16,"field":"gradient","thresh":0.25,"crash_frac":0.2,"crash_window":40,"churn_rate":1.5,"duty_period":8,"duty_on":3,"capacity":500,"deplete":true,"trace":true}`))
	f.Add([]byte(`{"engine":"shard","shards":2,"workload":"flood","side":16,"density":4,"floods":3,"seed":9,"crash_frac":0.1,"crash_window":30,"capacity":40,"deplete":true,"trace":true}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := DecodeSpec(bytes.NewReader(data))
		if err != nil {
			return // malformed input is a 400, and that is all it is
		}
		n1 := spec.Normalize()
		n2 := n1.Normalize()
		if !reflect.DeepEqual(n1, n2) {
			t.Fatalf("Normalize is not idempotent:\nonce:  %+v\ntwice: %+v", n1, n2)
		}
		if err := n1.Validate(); err != nil {
			return // invalid missions are refused before digesting
		}
		d1 := n1.Digest()

		// Canonical bytes must decode back to the same mission.
		canon := n1.Canonical()
		spec2, err := DecodeSpec(bytes.NewReader(canon))
		if err != nil {
			t.Fatalf("canonical bytes do not decode: %v\n%s", err, canon)
		}
		n3 := spec2.Normalize()
		if err := n3.Validate(); err != nil {
			t.Fatalf("canonical round-trip fails validation: %v\n%s", err, canon)
		}
		if d3 := n3.Digest(); d3 != d1 {
			t.Fatalf("canonical round-trip changes the digest: %s -> %s\n%s", d1, d3, canon)
		}

		if n1.Side > 16 || n1.Workload == "flood" && n1.Side*n1.Side*n1.Density > 1024 {
			return // too big to run per input
		}
		if res, _, err := Execute(&n1, nil); err == nil && len(res) == 0 {
			t.Fatalf("Execute returned neither a result nor an error\n%s", canon)
		}
	})
}
