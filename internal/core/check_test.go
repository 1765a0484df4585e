package core

import (
	"strings"
	"testing"

	"repro/internal/bus"
	"repro/internal/snapshot"
)

// TestCheckRejectsShortHostBytes restores a wrapper whose table entry
// carries fewer host bytes than its elements need — the section walks
// both from bytes — and expects the restored wrapper's Check to reject
// it: unchecked, a read of the entry's last element indexes past its
// host bytes and panics.
func TestCheckRejectsShortHostBytes(t *testing.T) {
	h := newHarness(t, Config{TotalSize: 1024})
	vptr := h.mustAlloc(64, bus.U32)
	if err := h.w.Check(); err != nil {
		t.Fatalf("as run: %v", err)
	}
	h.w.table.entries[0].Dim = 128
	w := snapshot.NewWriter()
	w.Save("mod", h.w)
	data, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	f, err := snapshot.Read(data)
	if err != nil {
		t.Fatal(err)
	}
	fresh := newHarness(t, Config{TotalSize: 1024})
	if err := f.Load("mod", fresh.w); err != nil {
		t.Fatal(err)
	}
	if err := fresh.w.Check(); err == nil || !strings.Contains(err.Error(), "256 host bytes for 128 elements of u32") {
		t.Errorf("Check: err = %v, want a short-host-bytes error", err)
	}
	defer func() {
		if recover() == nil {
			t.Error("reading past the host bytes did not panic; Check need not reject the entry")
		}
	}()
	fresh.do(bus.Request{Op: bus.OpRead, VPtr: vptr + 4*127, DType: bus.U32})
}
