package journal

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"dcnr/internal/obs"
)

// FuzzReadJSONL checks that ReadJSONL never panics and that every
// accepted stream re-reads identically after WriteJSONL: the same records
// in the same order with the same resolved names, times and aux values
// quantized exactly as the encoder documents (six fractional digits).
func FuzzReadJSONL(f *testing.F) {
	var buf bytes.Buffer
	if err := chainJournal().WriteJSONL(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add(`{"run":0,"scenario":"baseline"}` + "\n" + `{"id":1,"kind":"fault_raised","t":1.5,"dev":"RSW","class":"x"}`)
	f.Add(`{"id":3,"parent":9,"kind":"incident_opened","t":-2,"dev":"CSA","sev":"SEV1","ref":-4}`)
	f.Add(`{"id":1,"kind":"repaired","t":0.0000004,"dev":"RSW","aux":1e300}`)
	f.Add(`{"id":1,"kind":"fault_raised","t":0,"dev":"a\"b"}`)
	f.Add(`{"id":1,"kind":"fault_raised","t":0,"dev":""}`)
	f.Add(`{"id":1,"kind":"nope","t":0,"dev":"RSW"}`)
	f.Add("\n\n{}\n")
	f.Add("not json")
	f.Fuzz(func(t *testing.T, in string) {
		x1, err := ReadJSONL(strings.NewReader(in))
		if err != nil {
			return // rejected input is fine; panics are not
		}
		var out bytes.Buffer
		if err := x1.WriteJSONL(&out); err != nil {
			t.Fatalf("WriteJSONL: %v", err)
		}
		x2, err := ReadJSONL(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-reading the written stream failed: %v\n%s", err, out.Bytes())
		}
		if x1.Len() != x2.Len() {
			t.Fatalf("re-read %d records, want %d\n%s", x2.Len(), x1.Len(), out.Bytes())
		}
		for i, a := range x1.Records() {
			if got, want := recordKey(x2, x2.Records()[i]), recordKey(x1, quantized(a)); got != want {
				t.Fatalf("record %d changed in the round trip:\ngot  %s\nwant %s", i, got, want)
			}
		}
	})
}

// quantized returns r with its times rounded as the JSONL encoder writes
// them.
func quantized(r Record) Record {
	q := func(v float64) float64 {
		v, _ = strconv.ParseFloat(string(obs.AppendFixed(nil, v, fixedDigits)), 64)
		return v
	}
	r.Time, r.Aux = q(r.Time), q(r.Aux)
	return r
}

// recordKey renders r with its enum ordinals resolved through x's name
// tables — ordinals are interning order, only the names are stable.
func recordKey(x *Index, r Record) string {
	class, sev := "-", "-"
	if r.Class >= 0 {
		class = x.names.className(r.Class)
	}
	if r.Sev >= 0 {
		sev = x.names.sevName(r.Sev)
	}
	return fmt.Sprintf("id=%d parent=%d kind=%s t=%v aux=%v ref=%d dev=%q class=%q sev=%q",
		r.ID, r.Parent, r.Kind, r.Time, r.Aux, r.Ref, x.names.devName(r.Dev), class, sev)
}
