package experiments

import (
	"encoding/json"
	"testing"
)

// FuzzParseSubmission feeds arbitrary bytes to the parser behind
// "stcc run -spec" and POST /v1/jobs. It must never panic, and a spec
// or config submission it accepts must marshal, parse back as a valid
// submission and keep its spec fingerprint.
func FuzzParseSubmission(f *testing.F) {
	for _, name := range Names() {
		f.Add([]byte(`{"name":"` + name + `"}`))
	}
	fig4, _ := Lookup("fig4")
	emitted, err := json.Marshal(fig4.Spec(Quick))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(emitted)
	f.Add([]byte(configWith(`"n":2`)))
	f.Add([]byte(configWith(`"n":4611686018427387904`)))
	f.Add([]byte(configWith(`"sideband_hop_delay":2305843009213693952`)))
	f.Fuzz(func(t *testing.T, data []byte) {
		sub, err := ParseSubmission(data)
		if err != nil || sub.Name != "" {
			return
		}
		fp, err := sub.Spec.Fingerprint()
		if err != nil {
			t.Fatalf("accepted submission has no fingerprint: %v", err)
		}
		out, err := json.Marshal(sub.Spec)
		if err != nil {
			t.Fatalf("accepted submission does not marshal: %v", err)
		}
		back, err := ParseSubmission(out)
		if err != nil {
			t.Fatalf("re-parse of own encoding: %v\n%s", err, out)
		}
		if got, err := back.Spec.Fingerprint(); err != nil || got != fp {
			t.Fatalf("round trip changed fingerprint %s -> %s (err %v)\n%s", fp, got, err, out)
		}
	})
}
