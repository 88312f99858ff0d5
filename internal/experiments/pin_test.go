package experiments

import (
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"hoiho/internal/core"
	"hoiho/internal/extract"
)

var updatePin = flag.Bool("update-pin", false, "rewrite the learned-corpus pin goldens under testdata/")

// TestLearnedCorpusPin is the byte-exact behaviour pin for learning:
// every ITDK era is learned end to end and its saved corpus (the
// core.MarshalNCs bytes `hoiho -save` writes) is hashed together with
// the corpus fingerprint the serving layer stamps. Any change to a
// learned byte — a different regex, class, eval count or NC order —
// fails here. The full form runs at Scale(1); -short runs testScale
// against its own golden. Regenerate with
//
//	go test ./internal/experiments -run TestLearnedCorpusPin -update-pin
//	go test ./internal/experiments -run TestLearnedCorpusPin -update-pin -short
//
// only when a change to learned output is intended.
func TestLearnedCorpusPin(t *testing.T) {
	scale, golden := Scale(1), "testdata/learned_pin.txt"
	if testing.Short() {
		scale, golden = testScale, "testdata/learned_pin_short.txt"
	}
	list := pslDefault()
	var sb strings.Builder
	for _, e := range ITDKEras() {
		run, err := RunITDKEra(context.Background(), e, scale, list)
		if err != nil {
			t.Fatal(err)
		}
		data, err := core.MarshalNCs(run.NCs)
		if err != nil {
			t.Fatal(err)
		}
		fp := extract.New(run.NCs).FingerprintString()
		fmt.Fprintf(&sb, "%s ncs=%d json=%x corpus=%s\n", e.Name, len(run.NCs), sha256.Sum256(data), fp)
	}
	got := sb.String()
	if *updatePin {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-pin)", err)
	}
	if got != string(want) {
		t.Errorf("learned corpora moved from %s:\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
}
