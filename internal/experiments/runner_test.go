package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"strings"
	"testing"

	"repro/internal/alloc"
	"repro/internal/bus"
	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/trace"
)

func TestLegSpecKeySemantics(t *testing.T) {
	base := LegSpec{Name: "a", Workload: "gsm", ISSes: 2, Frames: 2}
	key := func(l LegSpec, snap string) string {
		k, err := l.Key(snap)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}

	if key(base, "") != key(base, "") {
		t.Error("key not stable")
	}
	// Presentation-only fields do not address results.
	renamed := base
	renamed.Name = "b"
	if key(renamed, "") != key(base, "") {
		t.Error("name changed the key")
	}
	// The zero spec and its explicit normalization are the same leg.
	if key(LegSpec{}, "") != key(LegSpec{Workload: "gsm", ISSes: 4, Memories: 1, Frames: 4, Seed: 1}, "") {
		t.Error("normalization changed the key")
	}
	// Scheduler knobs are part of the FULL key (the stored result
	// reports wall time), workload changes obviously too.
	for name, varied := range map[string]LegSpec{
		"lockstep": {Name: "a", Workload: "gsm", ISSes: 2, Frames: 2, Lockstep: true},
		"frames":   {Name: "a", Workload: "gsm", ISSes: 2, Frames: 3},
		"seed":     {Name: "a", Workload: "gsm", ISSes: 2, Frames: 2, Seed: 9},
	} {
		if key(varied, "") == key(base, "") {
			t.Errorf("%s change did not change the key", name)
		}
	}
	// A different warm snapshot is a different result.
	if key(base, "abc") == key(base, "") || key(base, "abc") == key(base, "def") {
		t.Error("snapshot hash not part of the key")
	}
}

// TestLegSpecWireFormat pins the JSON face against values recorded at
// the commit before LegSpec's string axes became kind-typed and the
// in-process mode struct between it and SystemConfig was deleted: the
// marshalled form of a fully
// populated spec, and — for the specs this package's tests, the service
// tests and CI's sweep.json use — the result-store key (cold and warm),
// the warm-boot class key and the config hashes under them. The full,
// runner-workers and server-b rows carry no worker count; they were
// recorded that way at the commit before the parallel tick engine was
// deleted. A moved value here means stored results and snapshots
// silently stop matching.
func TestLegSpecWireFormat(t *testing.T) {
	full := LegSpec{Name: "full", Workload: "sweep", ISSes: 3, Memories: 2, Frames: 5, Seed: 7,
		Lockstep: true, Alloc: alloc.Buddy, Depth: 4, Split: true, OOO: true, Crossbar: true,
		Cache: true, L2: true, Partition: cache.PartUCP, Dram: true, ClosePage: true,
		CacheSets: 8, CacheWays: 2, L2Sets: 4, L2Ways: 4, UCPPeriod: 128, VCD: true}
	const golden = `{"name":"full","workload":"sweep","isses":3,"memories":2,"frames":5,"seed":7,"lockstep":true,"alloc":"buddy","depth":4,"split":true,"ooo":true,"crossbar":true,"cache":true,"l2":true,"partition":"ucp","dram":true,"close_page":true,"cache_sets":8,"cache_ways":2,"l2_sets":4,"l2_ways":4,"ucp_period":128,"vcd":true}`
	j, err := json.Marshal(full)
	if err != nil || string(j) != golden {
		t.Errorf("marshal = %s, %v\nwant      %s", j, err, golden)
	}
	var back LegSpec
	if err := json.Unmarshal([]byte(golden), &back); err != nil || back != full {
		t.Errorf("unmarshal = %+v, %v", back, err)
	}

	for _, tc := range []struct {
		name                                  string
		leg                                   LegSpec
		key, warmKey, stateKey, hash, stateHa string
	}{
		{"full", full, "5b4a6c781cbfa71d06306bce2bff62a3", "1f144209257281b244bcf2ae6da12b49", "f1d4acd17fb7cef3d7e816866bbbbc67", "7480086eff57dca641803f1233475810", "2c2d8a4c21e97a4e21da79e5e66a534a"},
		{"zero", LegSpec{}, "ab05f559362c21b8dd3ed8d2b886b2e3", "93c34147c81ceef3a0d123d55569e0fd", "6cbb323981ab36d047f634459fdce2ea", "0197e5715371a1da4d40fd25dcf79e52", "0197e5715371a1da4d40fd25dcf79e52"},
		{"runner-base", LegSpec{Name: "a", Workload: "gsm", ISSes: 2, Frames: 2}, "b511f0a35a2d4385fecefa28e7dd7350", "163145eed5a1ceca8326a0155940ca07", "9e579bd2be6ba41238b070793b9de180", "3c914e91290d66c1b26a6a2b7280077e", "3c914e91290d66c1b26a6a2b7280077e"},
		{"runner-workers", LegSpec{Name: "a", Workload: "gsm", ISSes: 2, Frames: 2, Lockstep: true}, "a6b73a683971ae99e4c9d11e2c33a1d4", "6b6f05e91eb11c834b87f147b6b5672c", "9e579bd2be6ba41238b070793b9de180", "8fecf437ac675de1189ace911b4bf04d", "3c914e91290d66c1b26a6a2b7280077e"},
		{"runner-lockstep", LegSpec{Name: "a", Workload: "gsm", ISSes: 2, Frames: 2, Lockstep: true}, "a6b73a683971ae99e4c9d11e2c33a1d4", "6b6f05e91eb11c834b87f147b6b5672c", "9e579bd2be6ba41238b070793b9de180", "8fecf437ac675de1189ace911b4bf04d", "3c914e91290d66c1b26a6a2b7280077e"},
		{"runner-frames", LegSpec{Name: "a", Workload: "gsm", ISSes: 2, Frames: 3}, "f2c13f16c5fa2486b383a1cf3bea9516", "64d6510a2c37191734df9b8fbbc24e6a", "135b3d1267396ba6faa29bb57e16a716", "3c914e91290d66c1b26a6a2b7280077e", "3c914e91290d66c1b26a6a2b7280077e"},
		{"runner-seed", LegSpec{Name: "a", Workload: "gsm", ISSes: 2, Frames: 2, Seed: 9}, "7349e14af18f022aa008857871c32cb7", "6aabceb61db98502013b29766a954f8d", "298890cf3abb94513b3275c7e2a7e93c", "3c914e91290d66c1b26a6a2b7280077e", "3c914e91290d66c1b26a6a2b7280077e"},
		{"runner-split", LegSpec{Workload: "gsm", ISSes: 2, Frames: 2, Split: true}, "3c3084feb01315df228b644a73d88fc4", "2046ef31a428491f02b7bf793aa12c29", "d99170b574b499270ab8a74e1a12e141", "dc9041d84df18e06ee79e85d37e6bc3d", "dc9041d84df18e06ee79e85d37e6bc3d"},
		{"runner-l2dram", LegSpec{Workload: "sweep", L2: true, Dram: true, Partition: cache.PartUCP}, "508438b3549574ba74797fe56bca1603", "6fa3bf125d2843d190501599b97c42a8", "b7cded1356efe6e0c7d142ed80428d5e", "f7e00df3f146db2b1cd54ba5b51a9360", "f7e00df3f146db2b1cd54ba5b51a9360"},
		{"runner-cancel", LegSpec{Workload: "gsm", ISSes: 2, Frames: 64}, "440103fa827c5e61c6da9ca25502b608", "79f202bc95ebca22b641d25b01971996", "533c09aa8e08f50db0405c6671f319ad", "3c914e91290d66c1b26a6a2b7280077e", "3c914e91290d66c1b26a6a2b7280077e"},
		{"server-b", LegSpec{Name: "b", Lockstep: true}, "2e6aa650fe62d5a55353317f6cbffe9e", "2f64d4cbd9241251eec1779d17386470", "6cbb323981ab36d047f634459fdce2ea", "2ee03a2a544ccf6e2c0eaebce2201dcc", "0197e5715371a1da4d40fd25dcf79e52"},
		{"server-crash", LegSpec{Name: "crash", Seed: 7}, "d3ab66a0f3a17e4b127b32968ea84105", "1d0ea76e36dd4b4b6a5b2d40709cb2a4", "75ee8774d8f9dddfff328fbba56c536b", "0197e5715371a1da4d40fd25dcf79e52", "0197e5715371a1da4d40fd25dcf79e52"},
		{"server-lockstep", LegSpec{Name: "lockstep", Workload: "gsm", ISSes: 2, Memories: 1, Frames: 2, Lockstep: true}, "a6b73a683971ae99e4c9d11e2c33a1d4", "6b6f05e91eb11c834b87f147b6b5672c", "9e579bd2be6ba41238b070793b9de180", "8fecf437ac675de1189ace911b4bf04d", "3c914e91290d66c1b26a6a2b7280077e"},
		{"server-wave", LegSpec{Name: "wave", Workload: "gsm", ISSes: 1, Memories: 1, Frames: 1, VCD: true}, "e4a5fe153a10bf450785e94c87046481", "cb1a4eccaeadd9eb67479af32de93068", "c1d71bd61db9b7a45578eea4ec1960f2", "2a4ef042a704942c0512d59ef0c92a3f", "2a4ef042a704942c0512d59ef0c92a3f"},
		{"ci-lru", LegSpec{Name: "lru", Workload: "sweep", ISSes: 2, Frames: 8, L2: true, Dram: true}, "09648d7a069ff78783b4609257385640", "70846f3756993ff0bb7de4af29def674", "281070cf311982f8410f775ef1ed469d", "967bf1e08fd75591e6891990c0b061d2", "967bf1e08fd75591e6891990c0b061d2"},
		{"ci-swp", LegSpec{Name: "swp", Workload: "sweep", ISSes: 2, Frames: 8, L2: true, Dram: true, Partition: cache.PartSWP}, "58f9275da3fc0653084e044791d43e4f", "86ef53bdf120b7776d49c59bb05a1e60", "b0ca924a2e8348f90b9cbdb9dcb8deac", "1f0cf34535294677fdf64b1a387e9022", "1f0cf34535294677fdf64b1a387e9022"},
		{"ci-long", LegSpec{Name: "big", Workload: "gsm", ISSes: 4, Frames: 4096}, "48b41af0bf60db6ed5cda6121094fe7a", "13e147795b27efadb1c9fd84075ed971", "abd000f78c987cb346a2daab6f5560d8", "0197e5715371a1da4d40fd25dcf79e52", "0197e5715371a1da4d40fd25dcf79e52"},
	} {
		key, err := tc.leg.Key("")
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		warmKey, _ := tc.leg.Key("abc")
		stateKey, _ := tc.leg.StateKey(1000)
		cfg, _ := tc.leg.Config()
		got := [5]string{key, warmKey, stateKey, cfg.Hash(), cfg.StateHash()}
		if want := [5]string{tc.key, tc.warmKey, tc.stateKey, tc.hash, tc.stateHa}; got != want {
			t.Errorf("%s: key, warm key, state key, hash, state hash =\n%q, recorded\n%q", tc.name, got, want)
		}
	}
}

// TestLegSpecJSONMatchesFlags holds the JSON face and the flag face to
// one meaning: the legs of CI's sweep.json and the equivalent platform
// flag lines describe state-identical machines (equal StateHash, so a
// snapshot taken through one face restores through the other). The
// lines say -depth 0 because a leg's omitted depth is SystemConfig's
// zero value; the flag's default, 1, builds the same single-outstanding
// ports but is a different number to the hash.
func TestLegSpecJSONMatchesFlags(t *testing.T) {
	const sweep = `[
		{"name": "lru", "workload": "sweep", "isses": 2, "frames": 8, "l2": true, "dram": true},
		{"name": "swp", "workload": "sweep", "isses": 2, "frames": 8, "l2": true, "dram": true, "partition": "swp"}
	]`
	lines := []string{
		"-memories 1 -memkind dram -l2 -depth 0",
		"-memories 1 -memkind dram -l2 -depth 0 -partition swp",
	}
	var legs []LegSpec
	if err := json.Unmarshal([]byte(sweep), &legs); err != nil {
		t.Fatal(err)
	}
	for i, leg := range legs {
		var cfg config.SystemConfig
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		resolve := cfg.BindFlags(fs)
		if err := fs.Parse(strings.Fields(lines[i])); err != nil {
			t.Fatal(err)
		}
		resolve()
		cfg.Masters = leg.ISSes
		want, err := leg.Config()
		if err != nil {
			t.Fatal(err)
		}
		if cfg.StateHash() != want.StateHash() {
			t.Errorf("leg %q vs %q:\nflags %+v\njson  %+v", leg.Name, lines[i], cfg, want)
		}
	}
}

func TestLegSpecStateKeyIgnoresScheduler(t *testing.T) {
	stateKey := func(l LegSpec) string {
		k, err := l.StateKey(1000)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	base := LegSpec{Workload: "gsm", ISSes: 2, Frames: 2}
	sched := base
	sched.Lockstep = true
	if stateKey(base) != stateKey(sched) {
		t.Error("scheduler knobs changed the warm-boot compatibility class")
	}
	observable := base
	observable.Split = true
	if stateKey(base) == stateKey(observable) {
		t.Error("observable protocol change kept the compatibility class")
	}
	if k1, _ := base.StateKey(1000); func() string { k, _ := base.StateKey(2000); return k }() == k1 {
		t.Error("warm-up length not part of the state key")
	}
}

func TestLegSpecValidate(t *testing.T) {
	for name, bad := range map[string]LegSpec{
		"workload":   {Workload: "quake"},
		"isses":      {ISSes: 65},
		"neg frames": {Frames: -1},
		"l2 on gsm":  {Workload: "gsm", L2: true},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("%s: invalid spec accepted", name)
		}
	}
	// The kind-typed axes reject unknown spellings where they enter: at
	// JSON decode, with an error naming the valid ones.
	for body, valid := range map[string]string{
		`{"alloc": "yolo"}`:     "buddy",
		`{"partition": "diag"}`: "ucp",
	} {
		var l LegSpec
		if err := json.Unmarshal([]byte(body), &l); err == nil || !strings.Contains(err.Error(), valid) {
			t.Errorf("decoding %s: err = %v, want one naming %q", body, err, valid)
		}
	}
	if err := (LegSpec{}).Validate(); err != nil {
		t.Errorf("zero spec rejected: %v", err)
	}
	if err := (LegSpec{Workload: "sweep", L2: true, Dram: true, Partition: cache.PartUCP}).Validate(); err != nil {
		t.Errorf("L2+DRAM sweep rejected: %v", err)
	}
}

func TestSimRunnerDeterministicAndResumable(t *testing.T) {
	leg := LegSpec{Workload: "gsm", ISSes: 2, Frames: 2}
	r := SimRunner{}
	ctx := context.Background()

	cold1, err := r.RunLeg(ctx, leg, nil)
	if err != nil {
		t.Fatal(err)
	}
	cold2, err := r.RunLeg(ctx, leg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !cold1.Identical(cold2) {
		t.Fatalf("cold runs diverged: %+v vs %+v", cold1, cold2)
	}
	if cold1.Cycles == 0 || cold1.Instructions == 0 || len(cold1.Stats) == 0 {
		t.Fatalf("degenerate result: %+v", cold1)
	}

	// Warm-boot: resume from a 1500-cycle prefix, land bit-identical.
	snap, err := r.Warmup(ctx, leg, 1500)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := r.RunLeg(ctx, leg, snap)
	if err != nil {
		t.Fatal(err)
	}
	if warm.StartCycle != 1500 {
		t.Errorf("warm run started at %d, want 1500", warm.StartCycle)
	}
	if !warm.Identical(cold1) {
		t.Fatalf("warm-boot diverged from cold: %+v vs %+v", warm, cold1)
	}
	// A different scheduler mode stays in the same compatibility class
	// and still lands on the same result.
	fast := leg
	fast.Lockstep = true
	warmFast, err := r.RunLeg(ctx, fast, snap)
	if err != nil {
		t.Fatal(err)
	}
	if !warmFast.Identical(cold1) {
		t.Fatalf("cross-scheduler warm-boot diverged: %+v vs %+v", warmFast, cold1)
	}
}

func TestSimRunnerCancellation(t *testing.T) {
	leg := LegSpec{Workload: "gsm", ISSes: 2, Frames: 64}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := (SimRunner{}).RunLeg(ctx, leg, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run returned %v, want context.Canceled", err)
	}
	if _, err := (SimRunner{}).Warmup(ctx, leg, 1_000_000); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled warmup returned %v, want context.Canceled", err)
	}
}

// pollCancelCtx cancels itself the at-th time a run polls it for
// cancellation, which the kernel does once per 65536-cycle chunk: a
// deterministic "Ctrl-C at simulated cycle (at-1)×65536".
type pollCancelCtx struct {
	context.Context
	cancel    context.CancelFunc
	polls, at int
}

func (c *pollCancelCtx) Err() error {
	if c.polls++; c.polls == c.at {
		c.cancel()
	}
	return c.Context.Err()
}

// TestRunTraceCancelsMidRun cancels a native-PE trace replay — a run
// site that ignored Options.Ctx before every run went through
// simulation.run — two chunks into a run more than three chunks long,
// and demands context.Canceled at that very poll: within one
// 65536-cycle chunk of the request, with no further chunk simulated. A
// nil context stays uninterruptible and runs the replay to its full
// length.
func TestRunTraceCancelsMidRun(t *testing.T) {
	tr := trace.Generate(trace.GenConfig{
		Seed: 5, Events: 40000, Slots: 16, NumSM: 1,
		MinDim: 4, MaxDim: 64, DType: bus.U32, Mix: trace.DefaultMix(),
	})
	full, _, err := RunTrace(nil, config.SystemConfig{}, config.MemWrapper, tr, trace.ModeDynamic, 0)
	if err != nil {
		t.Fatal(err)
	}
	const at, chunk = 3, 65536
	if full.Cycles <= at*chunk {
		t.Fatalf("replay of %d cycles is too short to cancel after %d chunks", full.Cycles, at-1)
	}
	inner, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctx := &pollCancelCtx{Context: inner, cancel: cancel, at: at}
	if _, _, err := RunTrace(ctx, config.SystemConfig{}, config.MemWrapper, tr, trace.ModeDynamic, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled replay returned %v, want context.Canceled", err)
	}
	if ctx.polls != at {
		t.Errorf("run polled its context %d times, want it to stop at poll %d", ctx.polls, at)
	}
}

// FuzzLegSpecJSON feeds arbitrary bytes through the service's decode
// path for one leg: JSON → Validate → Key. Each stage must either fail
// with an error or, for a valid spec, yield a stable key.
func FuzzLegSpecJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var l LegSpec
		if json.Unmarshal(data, &l) != nil || l.Validate() != nil {
			return
		}
		k, err := l.Key("")
		if err != nil {
			return
		}
		if k2, _ := l.Key(""); k == "" || k2 != k {
			t.Fatalf("key %q then %q for %s", k, k2, data)
		}
	})
}
