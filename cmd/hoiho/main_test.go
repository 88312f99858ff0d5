package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hoiho/internal/core"
)

func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const plainTraining = `# hostname asn [address]
as701-nyc-xe0.example.net 701
as3356-lax-ge3.example.net 3356
as7018-fra-te1.example.net 7018
as1299-lhr-xe2.example.net 1299
as2914-sin-hu0.example.net 2914
core1.nyc.example.net 64512
`

func TestRunPlain(t *testing.T) {
	path := writeFile(t, "train.txt", plainTraining)
	var out bytes.Buffer
	if err := run(context.Background(), []string{path}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "example.net: good") {
		t.Errorf("output:\n%s", text)
	}
	if !strings.Contains(text, `as(\d+)-`) {
		t.Errorf("regex missing:\n%s", text)
	}
}

func TestRunJSONRoundTrip(t *testing.T) {
	path := writeFile(t, "train.txt", plainTraining)
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-json", path}, &out); err != nil {
		t.Fatal(err)
	}
	ncs, err := core.UnmarshalNCs(out.Bytes())
	if err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out.String())
	}
	if len(ncs) != 1 || ncs[0].Suffix != "example.net" {
		t.Errorf("ncs = %+v", ncs)
	}
}

func TestRunNamesMode(t *testing.T) {
	path := writeFile(t, "names.txt", `
vodafone-ic-1.c.telia.net vodafone
bloomberg-ic-2.c.telia.net bloomberg
comcast-ic-3.c.telia.net comcast
akamai-ic-4.c.telia.net akamai
`)
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-names", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `([a-z]+)`) {
		t.Errorf("output:\n%s", out.String())
	}
	// -names requires plain format.
	if err := run(context.Background(), []string{"-names", "-format", "itdk", path}, &out); err == nil {
		t.Error("itdk + names should error")
	}
}

func TestRunWithAddressAndIPFilter(t *testing.T) {
	// The address column disqualifies IP-fragment extractions.
	path := writeFile(t, "train.txt", `
50-236-216-122-static.hfc.cb.net 122 50.236.216.122
50-236-216-95-static.hfc.cb.net 95 50.236.216.95
50-236-217-14-static.hfc.cb.net 14 50.236.217.14
50-236-217-33-static.hfc.cb.net 33 50.236.217.33
`)
	var out bytes.Buffer
	if err := run(context.Background(), []string{path}, &out); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "cb.net:") {
		t.Errorf("IP fragments learned as a convention:\n%s", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{},                        // no file
		{"-format", "bogus", "x"}, // unknown format
		{filepath.Join(t.TempDir(), "missing.txt")}, // missing file
	}
	for _, args := range cases {
		var out bytes.Buffer
		if err := run(context.Background(), args, &out); err == nil {
			t.Errorf("run(%v) should error", args)
		}
	}
	bad := writeFile(t, "bad.txt", "only-one-field\n")
	var out bytes.Buffer
	if err := run(context.Background(), []string{bad}, &out); err == nil {
		t.Error("malformed line should error")
	}
	badASN := writeFile(t, "bad2.txt", "host.x.net notanasn\n")
	if err := run(context.Background(), []string{badASN}, &out); err == nil {
		t.Error("bad ASN should error")
	}
	badAddr := writeFile(t, "bad3.txt", "host.x.net 100 notanip\n")
	if err := run(context.Background(), []string{badAddr}, &out); err == nil {
		t.Error("bad address should error")
	}
}

func TestRunCustomPSL(t *testing.T) {
	pslPath := writeFile(t, "psl.dat", "net\nexample.net\n")
	// With example.net itself a public suffix, the registered domain of
	// the hostnames becomes <label>.example.net per hostname: no suffix
	// accumulates 4+ items, so nothing is learned.
	train := writeFile(t, "train.txt", plainTraining)
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-psl", pslPath, train}, &out); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "example.net: good") {
		t.Errorf("custom PSL ignored:\n%s", out.String())
	}
}

func TestRunAblationFlags(t *testing.T) {
	path := writeFile(t, "train.txt", plainTraining)
	for _, flag := range []string{"-no-merge", "-no-classes", "-no-sets", "-no-typo-credit"} {
		var out bytes.Buffer
		if err := run(context.Background(), []string{flag, path}, &out); err != nil {
			t.Errorf("run(%s): %v", flag, err)
		}
	}
}

func TestRunSaveApply(t *testing.T) {
	// Learn + save, then apply the saved corpus to unseen hostnames.
	train := writeFile(t, "train.txt", plainTraining)
	ncsPath := filepath.Join(t.TempDir(), "ncs.json")
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-save", ncsPath, train}, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(ncsPath)
	if err != nil {
		t.Fatal(err)
	}
	if ncs, err := core.UnmarshalNCs(data); err != nil || len(ncs) != 1 {
		t.Fatalf("saved corpus: ncs=%v err=%v", ncs, err)
	}

	hosts := writeFile(t, "hosts.txt", `
# PTR sweep; extra columns are ignored
as64500-ams-xe9.example.net 192.0.2.1
lo0.fra.example.net
as65000-nyc-ge1.example.net
not-this-suffix.example.org
`)
	out.Reset()
	if err := run(context.Background(), []string{"-apply", ncsPath, hosts}, &out); err != nil {
		t.Fatal(err)
	}
	want := "as64500-ams-xe9.example.net\t64500\nas65000-nyc-ge1.example.net\t65000\n"
	if out.String() != want {
		t.Errorf("apply output:\n%q\nwant:\n%q", out.String(), want)
	}
}

func TestRunSaveBinaryApply(t *testing.T) {
	// -save to a .hbc path (and -save-format bin) writes the binary
	// corpus; -apply sniffs the format and serves it identically.
	train := writeFile(t, "train.txt", plainTraining)
	hbcPath := filepath.Join(t.TempDir(), "ncs.hbc")
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-save", hbcPath, train}, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(hbcPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 4 || string(data[:3]) != "HBC" {
		t.Fatalf("-save ncs.hbc wrote %.8q, want HBC magic", data)
	}

	// -save-format bin forces the binary form onto any extension.
	forcedPath := filepath.Join(t.TempDir(), "ncs.json")
	if err := run(context.Background(), []string{"-save", forcedPath, "-save-format", "bin", train}, &out); err != nil {
		t.Fatal(err)
	}
	forced, err := os.ReadFile(forcedPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(forced[:3]) != "HBC" {
		t.Fatalf("-save-format bin wrote %.8q, want HBC magic", forced)
	}

	hosts := writeFile(t, "hosts.txt", "as64500-ams-xe9.example.net\nlo0.fra.example.net\n")
	out.Reset()
	if err := run(context.Background(), []string{"-apply", hbcPath, hosts}, &out); err != nil {
		t.Fatal(err)
	}
	if want := "as64500-ams-xe9.example.net\t64500\n"; out.String() != want {
		t.Errorf("apply output %q, want %q", out.String(), want)
	}
}

func TestRunApplyClassRestriction(t *testing.T) {
	// A hand-written corpus with one good and one poor convention.
	ncsPath := writeFile(t, "ncs.json", `[
  {"suffix":"good.net","regexes":["^as(\\d+)\\.good\\.net$"],"class":"good"},
  {"suffix":"poor.net","regexes":["^as(\\d+)\\.poor\\.net$"],"class":"poor"}
]`)
	hosts := writeFile(t, "hosts.txt", "as100.good.net\nas200.poor.net\n")

	cases := []struct {
		classes string
		want    string
	}{
		{"all", "as100.good.net\t100\nas200.poor.net\t200\n"},
		{"usable", "as100.good.net\t100\n"},
		{"good", "as100.good.net\t100\n"},
	}
	for _, c := range cases {
		var out bytes.Buffer
		if err := run(context.Background(), []string{"-apply", ncsPath, "-classes", c.classes, hosts}, &out); err != nil {
			t.Fatalf("-classes %s: %v", c.classes, err)
		}
		if out.String() != c.want {
			t.Errorf("-classes %s:\n%q\nwant:\n%q", c.classes, out.String(), c.want)
		}
	}

	var out bytes.Buffer
	if err := run(context.Background(), []string{"-apply", ncsPath, "-classes", "bogus", hosts}, &out); err == nil {
		t.Error("bogus -classes should error")
	}
	if err := run(context.Background(), []string{"-apply", filepath.Join(t.TempDir(), "missing.json"), hosts}, &out); err == nil {
		t.Error("missing corpus file should error")
	}
	bad := writeFile(t, "bad.json", "{not json")
	if err := run(context.Background(), []string{"-apply", bad, hosts}, &out); err == nil {
		t.Error("malformed corpus should error")
	}
}

func TestRunMatchesDump(t *testing.T) {
	path := writeFile(t, "train.txt", plainTraining)
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-matches", path}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "TP  as701-nyc-xe0.example.net") {
		t.Errorf("per-hostname dump missing:\n%s", text)
	}
	if !strings.Contains(text, "train=701 extracted=701") {
		t.Errorf("extraction columns missing:\n%s", text)
	}
}

// TestRunTextGolden pins the whole text report, with and without the
// per-hostname -matches dump, on a three-suffix training set.
func TestRunTextGolden(t *testing.T) {
	for _, c := range []struct {
		args   []string
		golden string
	}{
		{[]string{"testdata/train.txt"}, "testdata/text.golden"},
		{[]string{"-matches", "testdata/train.txt"}, "testdata/text_matches.golden"},
	} {
		var out bytes.Buffer
		if err := run(context.Background(), c.args, &out); err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(c.golden)
		if err != nil {
			t.Fatal(err)
		}
		if out.String() != string(want) {
			t.Errorf("%v: output differs from %s:\ngot:\n%s\nwant:\n%s", c.args, c.golden, out.String(), want)
		}
	}
}
