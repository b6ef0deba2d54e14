package mproc

import (
	"bufio"
	"bytes"
	"errors"
	"flag"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"rubic/internal/colocate"
	"rubic/internal/core"
	"rubic/internal/wal"
)

// runAgentFrames runs an in-process agent and decodes everything it streams.
func runAgentFrames(t *testing.T, cfg AgentConfig) []Frame {
	t.Helper()
	var buf bytes.Buffer
	if err := RunAgent(cfg, &buf); err != nil {
		t.Fatal(err)
	}
	var frames []Frame
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		f, err := Decode(sc.Bytes())
		if err != nil {
			t.Fatalf("agent emitted a bad frame: %v", err)
		}
		frames = append(frames, f)
	}
	return frames
}

func TestAgentStreamsProtocol(t *testing.T) {
	frames := runAgentFrames(t, AgentConfig{
		Spec:     colocate.StackSpec{Workload: "rbtree-ro", Policy: "rubic"},
		Stack:    stackOptions("tl2", 2, 1),
		Duration: 150 * time.Millisecond,
		Period:   5 * time.Millisecond,
	})
	if len(frames) < 3 {
		t.Fatalf("only %d frames (want hello + telemetry + result)", len(frames))
	}
	if frames[0].Type != FrameHello {
		t.Fatalf("first frame is %s, want hello", frames[0].Type)
	}
	h := frames[0].Hello
	if h.Workload != "rbtree-ro" || h.Policy != "rubic" || h.Pool != 2 || h.PID == 0 {
		t.Errorf("handshake did not echo the config: %+v", h)
	}
	last := frames[len(frames)-1]
	if last.Type != FrameResult {
		t.Fatalf("last frame is %s, want result", last.Type)
	}
	r := last.Result
	if !r.Verified || r.Completed == 0 || r.Tput <= 0 || r.Err != "" {
		t.Errorf("bad result: %+v", r)
	}
	if r.MeanLevel < 1 || r.MeanLevel > 2 {
		t.Errorf("mean level %v out of [1,2]", r.MeanLevel)
	}
	sawTelemetry := false
	for _, f := range frames[1 : len(frames)-1] {
		if f.Type != FrameTelemetry {
			t.Fatalf("mid-stream frame of type %s", f.Type)
		}
		sawTelemetry = true
	}
	if !sawTelemetry {
		t.Error("no telemetry frames in a 150 ms run")
	}
}

func TestAgentGreedyPinsPool(t *testing.T) {
	frames := runAgentFrames(t, AgentConfig{
		Spec:     colocate.StackSpec{Workload: "bank", Policy: "greedy"},
		Stack:    stackOptions("norec", 3, 1),
		Duration: 100 * time.Millisecond,
		Period:   5 * time.Millisecond,
	})
	last := frames[len(frames)-1].Result
	if last.MeanLevel != 3 {
		t.Errorf("greedy mean level = %v, want 3", last.MeanLevel)
	}
	if last.Commits == 0 {
		t.Error("no STM commits reported")
	}
}

func TestAgentBadConfig(t *testing.T) {
	mk := func(workload, policy string, pool int, d time.Duration, engine string) AgentConfig {
		return AgentConfig{
			Spec:     colocate.StackSpec{Workload: workload, Policy: policy},
			Stack:    stackOptions(engine, pool, 0),
			Duration: d,
		}
	}
	cases := []AgentConfig{
		mk("", "rubic", 2, time.Second, "tl2"),           // no workload
		mk("rbtree", "rubic", 0, time.Second, "tl2"),     // bad pool
		mk("rbtree", "rubic", 2, 0, "tl2"),               // no duration
		mk("nope", "rubic", 2, time.Second, "tl2"),       // bad workload
		mk("rbtree", "nope", 2, time.Second, "tl2"),      // bad policy
		mk("rbtree", "rubic", 2, time.Second, "quantum"), // bad engine
		{Spec: colocate.StackSpec{Workload: "kv", Policy: "greedy", QPS: 10, Arrival: "poisson"}, // open loop
			Stack: stackOptions("tl2", 2, 0), Duration: time.Second},
	}
	for i, cfg := range cases {
		var buf bytes.Buffer
		if err := RunAgent(cfg, &buf); err == nil {
			t.Errorf("case %d accepted: %+v", i, cfg)
		}
	}
}

func TestAgentMainFlags(t *testing.T) {
	var buf bytes.Buffer
	err := AgentMain([]string{
		"-spec", "bank:rubic", "-pool", "2",
		"-duration", "100ms", "-period", "5ms", "-algo", "tl2",
		"-seed", "7", "-processes", "2",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"type":"result"`) {
		t.Error("no result frame on the wire")
	}
	if err := AgentMain([]string{"-pool", "x"}, &buf); err == nil {
		t.Error("bad flag accepted")
	}
	// The stack is its -spec; the engine flag is the shared -algo.
	for _, gone := range []string{"-workload=bank", "-policy=rubic", "-engine=tl2", "-adaptive=tl2", "-adapt-window=2"} {
		if _, err := parseAgentFlags([]string{gone}); err == nil {
			t.Errorf("%s accepted", gone)
		}
	}
	n := 0
	agentFlags(&AgentConfig{}).VisitAll(func(*flag.Flag) { n++ })
	if n != 16 {
		t.Errorf("the agent declares %d flags, want 16", n)
	}
}

// stackOptions is one stack's engine, pool and seed, nothing else set.
func stackOptions(engine string, pool int, seed int64) colocate.StackOptions {
	return colocate.StackOptions{StackFlags: colocate.StackFlags{Engine: engine, Pool: pool, Seed: seed}}
}

// TestAgentArgsRoundTrip: the flag list the supervisor builds decodes into
// the config the agent runs — every field set away from its default, the
// restore states included — and the agent logs where goroutine mode would:
// one directory directly under the root, named after the stack.
func TestAgentArgsRoundTrip(t *testing.T) {
	root := t.TempDir()
	want := AgentConfig{
		Spec: colocate.StackSpec{Workload: "bank", Policy: "ebs", ArrivalDelay: time.Second, Adaptive: "tl2:backoff+norec:greedy"},
		Stack: colocate.StackOptions{
			StackFlags: colocate.StackFlags{Engine: "norec", Pool: 3, Seed: 9,
				Durable: colocate.DurableFlags{On: true, Root: root, Fsync: "os"}},
			Processes: 4, Chaos: "mixed@11", Child: 2, Incarnation: 1,
		},
		Duration: time.Second, Period: 5 * time.Millisecond, GOMAXPROCS: 2,
		Restore:      &core.TuningState{Level: 3.5, WMax: 6, Epoch: 0.25},
		AdaptRestore: &core.AdaptiveState{Candidate: "norec/greedy", Phase: "settled", Reference: 80, Switches: 3},
	}
	got, err := parseAgentFlags(AgentArgs(want))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("agent config\n got %+v\nwant %+v", got, want)
	}
	if empty, err := parseAgentFlags(AgentArgs(AgentConfig{})); err != nil || empty.Restore != nil || empty.AdaptRestore != nil {
		t.Fatalf("zero config round-trips to %+v (err %v)", empty, err)
	}
	p, err := got.Proc()
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "P3-bank-ebs" || p.Durable.Dir != filepath.Join(root, "P3-bank-ebs") || p.Durable.Policy != wal.FsyncOS {
		t.Fatalf("stack %q logs with %+v, want P3-bank-ebs directly under %q", p.Name, p.Durable, root)
	}
}

// TestAgentDurableFrames: a durable agent streams its log position with the
// telemetry and fills the result frame's from the closed log — acked catches
// up with issued, and the outcome is the shared lifecycle's WalResult.
func TestAgentDurableFrames(t *testing.T) {
	cfg := AgentConfig{
		Spec:     colocate.StackSpec{Workload: "bank", Policy: "rubic"},
		Stack:    stackOptions("tl2", 2, 1),
		Duration: 150 * time.Millisecond,
		Period:   5 * time.Millisecond,
	}
	cfg.Stack.Durable = colocate.DurableFlags{On: true, Root: t.TempDir(), Fsync: "os"}
	frames := runAgentFrames(t, cfg)
	for _, f := range frames[1 : len(frames)-1] {
		if f.Telemetry.Wal == nil {
			t.Fatal("telemetry frame of a durable agent carries no WAL state")
		}
	}
	final := frames[len(frames)-1].Result.Wal
	if final == nil || final.Lost || final.Last == 0 || final.Acked != final.Last || final.Recovered != 0 {
		t.Fatalf("final WAL state %+v, want every issued commit acked by the close", final)
	}

	cfg.Stack.Durable.Root = ""
	if err := RunAgent(cfg, &bytes.Buffer{}); err == nil {
		t.Error("durable agent without a log directory accepted")
	}
}

// TestWalStateFromResult: the wire form of a stack's log outcome keeps the
// lost flag the shared lifecycle derived, including from a failed Close.
func TestWalStateFromResult(t *testing.T) {
	if walState(nil) != nil {
		t.Fatal("no log must mean no WAL state on the wire")
	}
	got := walState(&colocate.WalResult{
		Recovered: wal.Recovered{LastCSN: 3}, LastCSN: 9, DurableCSN: 7,
		Lost: true, LostErr: errors.New("close: disk gone"),
	})
	if want := (WalState{Acked: 7, Last: 9, Recovered: 3, Lost: true}); *got != want {
		t.Fatalf("wal state %+v, want %+v", *got, want)
	}
}
