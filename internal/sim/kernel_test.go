package sim

import (
	"errors"
	"testing"
)

func TestKernelCycleCount(t *testing.T) {
	k := New()
	k.Add(&nopModule{"m"})
	if err := k.Run(10); err != nil {
		t.Fatal(err)
	}
	if got := k.Cycle(); got != 10 {
		t.Errorf("Cycle() = %d, want 10", got)
	}
}

func TestKernelTicksEveryModuleOncePerCycle(t *testing.T) {
	k := New()
	counts := make([]int, 3)
	for i := 0; i < 3; i++ {
		i := i
		k.Add(&FuncModule{Nm: "m", Fn: func(cycle uint64) { counts[i]++ }})
	}
	if err := k.Run(7); err != nil {
		t.Fatal(err)
	}
	for i, c := range counts {
		if c != 7 {
			t.Errorf("module %d ticked %d times, want 7", i, c)
		}
	}
}

func TestKernelModuleOrderUnobservable(t *testing.T) {
	// Two kernels with modules registered in opposite orders must produce
	// identical signal traces: the two-phase discipline hides ordering.
	build := func(reverse bool) []int {
		k := New()
		a := NewSignal(k, "a", 0)
		b := NewSignal(k, "b", 0)
		inc := &FuncModule{Nm: "inc", Fn: func(cycle uint64) { a.Set(b.Get() + 1) }}
		dbl := &FuncModule{Nm: "dbl", Fn: func(cycle uint64) { b.Set(a.Get() * 2) }}
		if reverse {
			k.Add(dbl)
			k.Add(inc)
		} else {
			k.Add(inc)
			k.Add(dbl)
		}
		var trace []int
		for i := 0; i < 8; i++ {
			if err := k.Step(); err != nil {
				t.Fatal(err)
			}
			trace = append(trace, a.Get(), b.Get())
		}
		return trace
	}
	fwd, rev := build(false), build(true)
	for i := range fwd {
		if fwd[i] != rev[i] {
			t.Fatalf("trace diverges at %d: fwd=%v rev=%v", i, fwd, rev)
		}
	}
}

func TestKernelFaultStopsRun(t *testing.T) {
	k := New()
	boom := errors.New("boom")
	k.Add(&FuncModule{Nm: "f", Fn: func(cycle uint64) {
		if cycle == 3 {
			k.Fault(boom)
		}
	}})
	err := k.Run(10)
	if !errors.Is(err, boom) {
		t.Fatalf("Run() error = %v, want wrapped boom", err)
	}
	if got := k.Cycle(); got != 4 {
		t.Errorf("Cycle() after fault = %d, want 4", got)
	}
	// Subsequent steps keep returning the fault.
	if err := k.Step(); !errors.Is(err, boom) {
		t.Errorf("Step() after fault = %v, want boom", err)
	}
}

// TestKernelFirstFaultWins pins both tie-breaks: a module's first fault
// beats its second, and when two modules fault in the same cycle the one
// registered first is reported, because modules tick in registration
// order.
func TestKernelFirstFaultWins(t *testing.T) {
	k := New()
	e1, e2, e3 := errors.New("first"), errors.New("second"), errors.New("later module")
	k.Add(&FuncModule{Nm: "f", Fn: func(cycle uint64) {
		if cycle == 2 {
			k.Fault(e1)
			k.Fault(e2)
		}
	}})
	k.Add(&FuncModule{Nm: "g", Fn: func(cycle uint64) {
		if cycle == 2 {
			k.Fault(e3)
		}
	}})
	err := k.Run(10)
	if !errors.Is(err, e1) || errors.Is(err, e2) || errors.Is(err, e3) {
		t.Fatalf("err = %v, want the first registered module's first fault only", err)
	}
	if got := k.Cycle(); got != 3 {
		t.Errorf("Cycle() after fault = %d, want 3", got)
	}
}

func TestRunUntil(t *testing.T) {
	k := New()
	s := NewSignal(k, "s", 0)
	k.Add(&FuncModule{Nm: "w", Fn: func(cycle uint64) { s.Set(int(cycle)) }})
	n, err := k.RunUntil(func() bool { return s.Get() >= 5 }, 100)
	if err != nil {
		t.Fatal(err)
	}
	// s.Get()==5 after the write in cycle 5 commits, i.e. after 7 steps
	// (cycle 0 writes 0 ... cycle 5 writes 5, visible after step 6).
	if s.Get() < 5 {
		t.Errorf("condition not established: s=%d after %d cycles", s.Get(), n)
	}
}

func TestRunUntilLimit(t *testing.T) {
	k := New()
	k.Add(&nopModule{"m"})
	n, err := k.RunUntil(func() bool { return false }, 20)
	if !errors.Is(err, ErrLimit) {
		t.Fatalf("err = %v, want ErrLimit", err)
	}
	if n != 20 {
		t.Errorf("n = %d, want 20", n)
	}
}

func TestRunUntilQuiescent(t *testing.T) {
	k := New()
	s := NewSignal(k, "s", 0)
	k.Add(&FuncModule{Nm: "w", Fn: func(cycle uint64) {
		if cycle < 5 {
			s.Set(int(cycle) + 1)
		}
	}})
	n, err := k.RunUntilQuiescent(3, 100)
	if err != nil {
		t.Fatal(err)
	}
	// Writes stop after cycle 4; 3 quiet cycles later the kernel stops.
	if n < 8 || n > 9 {
		t.Errorf("stopped after %d cycles, want 8..9", n)
	}
	if got := s.Get(); got != 5 {
		t.Errorf("s = %d, want 5", got)
	}
}

func TestRunUntilQuiescentLimit(t *testing.T) {
	k := New()
	s := NewSignal(k, "s", 0)
	k.Add(&FuncModule{Nm: "w", Fn: func(cycle uint64) { s.Set(int(cycle)) }})
	_, err := k.RunUntilQuiescent(2, 10)
	if !errors.Is(err, ErrLimit) {
		t.Fatalf("err = %v, want ErrLimit", err)
	}
}

func TestAfterCycleHook(t *testing.T) {
	k := New()
	k.Add(&nopModule{"m"})
	var cycles []uint64
	k.AfterCycle(func(c uint64) { cycles = append(cycles, c) })
	if err := k.Run(3); err != nil {
		t.Fatal(err)
	}
	want := []uint64{0, 1, 2}
	if len(cycles) != len(want) {
		t.Fatalf("hook ran %d times, want %d", len(cycles), len(want))
	}
	for i := range want {
		if cycles[i] != want[i] {
			t.Errorf("hook cycle[%d] = %d, want %d", i, cycles[i], want[i])
		}
	}
}

func TestModulesAccessor(t *testing.T) {
	k := New()
	m := &nopModule{"only"}
	k.Add(m)
	if ms := k.Modules(); len(ms) != 1 || ms[0].Name() != "only" {
		t.Errorf("Modules() = %v, want [only]", ms)
	}
}

func TestDeterministicReplay(t *testing.T) {
	// The same system stepped twice from scratch produces identical traces
	// (experiment E4's foundation).
	run := func() []int {
		k := New()
		a := NewSignal(k, "a", 1)
		b := NewSignal(k, "b", 2)
		k.Add(&FuncModule{Nm: "m1", Fn: func(cycle uint64) { a.Set(a.Get() + b.Get()) }})
		k.Add(&FuncModule{Nm: "m2", Fn: func(cycle uint64) { b.Set(a.Get() ^ b.Get()) }})
		var tr []int
		for i := 0; i < 50; i++ {
			if err := k.Step(); err != nil {
				t.Fatal(err)
			}
			tr = append(tr, a.Get(), b.Get())
		}
		return tr
	}
	x, y := run(), run()
	for i := range x {
		if x[i] != y[i] {
			t.Fatalf("replay diverged at index %d", i)
		}
	}
}

func TestProfilingAccumulates(t *testing.T) {
	k := New()
	k.Add(&nopModule{"cheap"})
	k.Add(&FuncModule{Nm: "busy", Fn: func(cycle uint64) {
		x := 0
		for i := 0; i < 1000; i++ {
			x += i
		}
		_ = x
	}})
	k.EnableProfiling()
	k.EnableProfiling() // idempotent
	if err := k.Run(100); err != nil {
		t.Fatal(err)
	}
	rep := k.ProfileReport()
	if len(rep) != 2 {
		t.Fatalf("report rows = %d", len(rep))
	}
	// Sorted most-expensive first; the busy module must lead.
	if rep[0].Name != "busy" {
		t.Errorf("most expensive = %s, want busy", rep[0].Name)
	}
	for _, r := range rep {
		if r.Ticks != 100 {
			t.Errorf("%s ticks = %d, want 100", r.Name, r.Ticks)
		}
	}
}

func TestProfileReportWithoutEnable(t *testing.T) {
	k := New()
	k.Add(&nopModule{"m"})
	if err := k.Run(5); err != nil {
		t.Fatal(err)
	}
	if rep := k.ProfileReport(); rep != nil {
		t.Errorf("report without profiling = %v", rep)
	}
}
