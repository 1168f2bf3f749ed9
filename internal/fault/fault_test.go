package fault

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/topo"
)

func testCluster(seed int64) (*sim.Engine, *fabric.Cluster) {
	e := sim.New(seed)
	return e, fabric.NewCluster(e, topo.Lehman(), fabric.QDRInfiniBand())
}

func TestActionDefaultsToAnyPair(t *testing.T) {
	s, err := Parse([]byte(`{"actions":[{"op":"drop","at_s":0,"prob":0.5}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if a := s.Actions[0]; a.Src != -1 || a.Dst != -1 {
		t.Errorf("unnamed src/dst = %d/%d, want -1/-1 (any)", a.Src, a.Dst)
	}
	s, err = Parse([]byte(`{"actions":[{"op":"drop","at_s":0,"prob":0.5,"src":0,"dst":2}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if a := s.Actions[0]; a.Src != 0 || a.Dst != 2 {
		t.Errorf("named src/dst = %d/%d, want 0/2", a.Src, a.Dst)
	}
}

func TestScheduleValidate(t *testing.T) {
	bad := []string{
		`{"actions":[{"op":"warp","at_s":0}]}`,                                           // unknown op
		`{"actions":[{"op":"crash","at_s":-1,"node":0}]}`,                                // negative time
		`{"actions":[{"op":"crash","at_s":2,"until_s":1,"node":0}]}`,                     // until before at
		`{"actions":[{"op":"crash","at_s":0,"node":-2}]}`,                                // bad node
		`{"actions":[{"op":"drop","at_s":0,"prob":0}]}`,                                  // prob out of range
		`{"actions":[{"op":"drop","at_s":0,"prob":1.5}]}`,                                // prob out of range
		`{"actions":[{"op":"delay","at_s":0,"prob":0.5}]}`,                               // missing extra
		`{"actions":[{"op":"crash","at_s":0,"node":0},{"op":"drop","at_s":0,"prob":2}]}`, // second action bad
	}
	for _, src := range bad {
		if _, err := Parse([]byte(src)); err == nil {
			t.Errorf("schedule %s passed validation", src)
		}
	}
	good := `{"name":"mix","actions":[
		{"op":"crash","at_s":0.5,"until_s":1.0,"node":1},
		{"op":"drop","at_s":0,"prob":0.1,"src":0,"dst":1},
		{"op":"delay","at_s":0,"prob":0.2,"extra_s":0.0001},
		{"op":"duplicate","at_s":0,"prob":0.05}]}`
	if _, err := Parse([]byte(good)); err != nil {
		t.Errorf("valid schedule rejected: %v", err)
	}
}

// TestParseRejectsLinkActions: schedules act on nodes and messages
// only, so a link-level op or a link field fails Parse at its line.
func TestParseRejectsLinkActions(t *testing.T) {
	for _, tc := range []struct{ src, want string }{
		{"{\"actions\":[\n{\"op\":\"crash\",\"at_s\":0,\"node\":0},\n{\"op\":\"degrade\",\"at_s\":0}]}",
			"schedule:3: action 1 (degrade): unknown op"},
		{"{\"actions\":[\n\n{\"op\":\"drop\",\"at_s\":0,\"prob\":0.5,\"link\":\"nic-tx0\"}]}",
			`schedule:3: action 0: unknown field "link"`},
	} {
		_, err := Parse([]byte(tc.src))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Parse(%q) = %v, want an error containing %q", tc.src, err, tc.want)
		}
	}
}

func TestInstallRejectsUnknownTargets(t *testing.T) {
	_, c := testCluster(1)
	if _, err := Install(c, &Schedule{Actions: []Action{
		{Op: OpCrash, At: 1, Node: 99}}}); err == nil {
		t.Error("crash of a node outside the machine must fail Install")
	}
}

func TestCrashAndReviveTimeline(t *testing.T) {
	e, c := testCluster(1)
	inj, err := Install(c, &Schedule{Actions: []Action{
		{Op: OpCrash, At: 0.001, Until: 0.002, Node: 1, Src: -1, Dst: -1}}})
	if err != nil {
		t.Fatal(err)
	}
	if c.FaultModel() == nil {
		t.Fatal("Install did not register the fault model")
	}
	type sample struct {
		at   sim.Duration
		want bool
	}
	for _, s := range []sample{
		{500 * sim.Microsecond, false},
		{1500 * sim.Microsecond, true},
		{2500 * sim.Microsecond, false},
	} {
		s := s
		e.After(s.at, func() {
			if got := inj.NodeDown(1); got != s.want {
				t.Errorf("NodeDown(1) at %v = %v, want %v", s.at, got, s.want)
			}
			if got := c.NodeDown(1); got != s.want {
				t.Errorf("Cluster.NodeDown(1) at %v = %v, want %v", s.at, got, s.want)
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// verdictTape records the injector's decisions for a fixed message
// sequence, exercising NodeDown-induced drops and probability draws.
func verdictTape(t *testing.T, seed int64, prob float64) []fabric.Verdict {
	t.Helper()
	e, c := testCluster(seed)
	_, err := Install(c, &Schedule{Actions: []Action{
		{Op: OpDrop, At: 0, Prob: prob, Src: -1, Dst: -1}}})
	if err != nil {
		t.Fatal(err)
	}
	var tape []fabric.Verdict
	e.Go("probe", func(p *sim.Proc) {
		fm := c.FaultModel()
		for i := 0; i < 200; i++ {
			v, _ := fm.MessageVerdict(0, 1, 8)
			tape = append(tape, v)
			p.Advance(sim.Microsecond)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return tape
}

func TestDropDecisionsDeterministicUnderSeed(t *testing.T) {
	a := verdictTape(t, 42, 0.3)
	b := verdictTape(t, 42, 0.3)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Error("identical seed+schedule produced different drop decisions")
	}
	drops := 0
	for _, v := range a {
		if v == fabric.VerdictDrop {
			drops++
		}
	}
	if drops < 30 || drops > 90 {
		t.Errorf("drop rate %d/200 far from prob 0.3", drops)
	}
	if fmt.Sprint(a) == fmt.Sprint(verdictTape(t, 43, 0.3)) {
		t.Error("different seeds produced identical 200-message drop tapes")
	}
}

func TestBackoffSequence(t *testing.T) {
	want := []sim.Duration{
		100 * sim.Microsecond, // after attempt 1
		200 * sim.Microsecond,
		400 * sim.Microsecond,
		800 * sim.Microsecond,
		1600 * sim.Microsecond,
		3200 * sim.Microsecond,
		6400 * sim.Microsecond,
		10 * sim.Millisecond, // capped
		10 * sim.Millisecond,
	}
	for i, w := range want {
		if got := backoff(i + 1); got != w {
			t.Errorf("backoff(%d) = %v, want %v", i+1, got, w)
		}
	}
	// Deep retry counts must not overflow past the cap.
	if got := backoff(200); got != maxBackoff {
		t.Errorf("backoff(200) = %v, want cap %v", got, maxBackoff)
	}
}

func TestAttemptTimeoutGrowth(t *testing.T) {
	xfer := 50 * sim.Microsecond
	prev := sim.Duration(0)
	for try := 0; try < 12; try++ {
		got := AttemptTimeout(try, xfer)
		if got < prev {
			t.Errorf("AttemptTimeout(%d) = %v shrank below %v", try, got, prev)
		}
		if got > timeoutScaleCap*baseTimeout+2*xfer {
			t.Errorf("AttemptTimeout(%d) = %v above the scale cap", try, got)
		}
		prev = got
	}
	if got := AttemptTimeout(0, xfer); got != baseTimeout+2*xfer {
		t.Errorf("first attempt timeout = %v, want base+2*xfer = %v", got, baseTimeout+2*xfer)
	}
}

func TestCommErrorUnwraps(t *testing.T) {
	err := error(&CommError{Op: "put", Src: 3, Dst: 7, Attempts: 7, Err: ErrTimeout})
	if !errors.Is(err, ErrTimeout) {
		t.Error("CommError must unwrap to its sentinel")
	}
	var ce *CommError
	if !errors.As(err, &ce) || ce.Attempts != 7 {
		t.Error("CommError must be retrievable via errors.As")
	}
	if errors.Is(err, ErrNodeDown) {
		t.Error("CommError must not match a different sentinel")
	}
}
