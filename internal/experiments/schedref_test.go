package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"testing"
)

// This file pins the differential matrix across commits. The matrix in
// scheduler_test.go and snapshot_test.go compares kernel modes against
// each other at one commit; testdata/schedref.json additionally records
// each scenario's reference observables (cycles, every module's stats,
// DMA outcomes, VCD hashes, mid-flight snapshot hashes), so a refactor
// of an FSM that moves every mode by the same cycle, or of a state
// encoding, is caught too. A commit that intends to change
// a scenario re-records it with -update and names it, with the reason,
// under "exceptions" in the file.

var updateRef = flag.Bool("update", false, "re-record testdata/schedref.json from this run instead of comparing against it")

const schedRefPath = "testdata/schedref.json"

// schedRef is the reference file. Every value is kept as the compact
// JSON it was recorded as, one scenario per line, so a re-recorded
// scenario shows up as a one-line diff.
type schedRef struct {
	// Exceptions names each scenario re-recorded since the file was first
	// written and why. Maintained by hand; -update carries it over.
	Exceptions map[string]json.RawMessage `json:"exceptions"`
	// Scenarios maps a scenario name to its reference sysSnapshot.
	Scenarios map[string]json.RawMessage `json:"scenarios"`
	// VCD maps a traced scenario to the SHA-256 of its waveform dump.
	VCD map[string]json.RawMessage `json:"vcd"`
	// Snapshots maps a snapshot scenario to the length and SHA-256 of its
	// mid-flight snapshot, pinning the state encoding byte for byte.
	Snapshots map[string]json.RawMessage `json:"snapshots"`
}

var schedRefData schedRef

func TestMain(m *testing.M) {
	flag.Parse()
	raw, err := os.ReadFile(schedRefPath)
	switch {
	case err == nil:
		if err := json.Unmarshal(raw, &schedRefData); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", schedRefPath, err)
			os.Exit(2)
		}
	case !*updateRef:
		fmt.Fprintf(os.Stderr, "%v (record it with: go test ./internal/experiments -update)\n", err)
		os.Exit(2)
	}
	for _, sec := range []*map[string]json.RawMessage{&schedRefData.Exceptions, &schedRefData.Scenarios, &schedRefData.VCD, &schedRefData.Snapshots} {
		if *sec == nil {
			*sec = map[string]json.RawMessage{}
		}
	}
	code := m.Run()
	if *updateRef && code == 0 {
		if err := writeSchedRef(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			code = 2
		}
	}
	os.Exit(code)
}

func writeSchedRef() error {
	var b bytes.Buffer
	section := func(key string, m map[string]json.RawMessage, last bool) {
		names := make([]string, 0, len(m))
		for n := range m {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(&b, " %q: {", key)
		for i, n := range names {
			sep := ","
			if i == len(names)-1 {
				sep = ""
			}
			fmt.Fprintf(&b, "\n  %q: %s%s", n, m[n], sep)
		}
		if len(names) > 0 {
			b.WriteString("\n ")
		}
		b.WriteString("}")
		if !last {
			b.WriteString(",")
		}
		b.WriteString("\n")
	}
	b.WriteString("{\n")
	section("exceptions", schedRefData.Exceptions, false)
	section("scenarios", schedRefData.Scenarios, false)
	section("vcd", schedRefData.VCD, false)
	section("snapshots", schedRefData.Snapshots, true)
	b.WriteString("}\n")
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		return err
	}
	return os.WriteFile(schedRefPath, b.Bytes(), 0o644)
}

// checkRefEntry compares got against the recorded entry of one section,
// or records it under -update.
func checkRefEntry(t *testing.T, section map[string]json.RawMessage, name string, got any) {
	t.Helper()
	enc, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if *updateRef {
		section[name] = enc
		return
	}
	want, ok := section[name]
	if !ok {
		t.Fatalf("%s: no reference in %s (record it with -update)", name, schedRefPath)
	}
	if !bytes.Equal(want, enc) {
		t.Fatalf("%s: diverged from %s\nrecorded: %s\nthis run: %s", name, schedRefPath, want, enc)
	}
}

// checkRef pins one scenario's observables against the committed
// reference.
func checkRef(t *testing.T, name string, snap sysSnapshot) {
	t.Helper()
	checkRefEntry(t, schedRefData.Scenarios, name, snap)
}

// checkRefVCD pins a waveform dump by hash.
func checkRefVCD(t *testing.T, name string, dump []byte) {
	t.Helper()
	checkRefEntry(t, schedRefData.VCD, name, digest(dump))
}

// checkRefSnapshot pins a snapshot file by hash.
func checkRefSnapshot(t *testing.T, name string, data []byte) {
	t.Helper()
	checkRefEntry(t, schedRefData.Snapshots, name, digest(data))
}

func digest(b []byte) string { return fmt.Sprintf("%d bytes sha256:%x", len(b), sha256.Sum256(b)) }
