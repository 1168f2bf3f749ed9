// Package fault provides deterministic fault injection for the simulated
// machine: a declarative JSON schedule of node crashes and message-level
// drop/delay/duplicate rules, an Injector that realizes the schedule
// against a fabric.Cluster using only the engine's seeded PRNG and
// virtual clock, and the retry ladder the communication runtimes use to
// recover. Identical (seed, schedule) pairs produce
// bit-identical runs at any host parallelism, so chaos experiments are
// exactly reproducible.
package fault

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

// Op names one fault action kind in a schedule.
type Op string

const (
	// OpCrash takes a node down at at_s; an optional until_s revives it.
	// Messages to or from a down node are dropped, including messages
	// already in flight when it goes down.
	OpCrash Op = "crash"
	// OpDrop loses matching messages with probability prob.
	OpDrop Op = "drop"
	// OpDelay adds extra_s of latency to matching messages with
	// probability prob.
	OpDelay Op = "delay"
	// OpDuplicate delivers matching messages twice with probability prob.
	OpDuplicate Op = "duplicate"
)

// Action is one entry of a fault schedule. Times are virtual seconds
// since simulation start. Src and Dst filter message-level rules by node
// pair; -1 (the default) matches any node.
type Action struct {
	Op    Op      `json:"op"`
	At    float64 `json:"at_s"`
	Until float64 `json:"until_s,omitempty"`
	Node  int     `json:"node,omitempty"`
	Prob  float64 `json:"prob,omitempty"`
	Extra float64 `json:"extra_s,omitempty"`
	Src   int     `json:"src,omitempty"`
	Dst   int     `json:"dst,omitempty"`
}

// UnmarshalJSON defaults the Src/Dst filters to -1 (match any) so that
// schedules only name them when they mean a specific node pair.
func (a *Action) UnmarshalJSON(b []byte) error {
	type raw Action // drops methods: no recursion
	r := raw{Src: -1, Dst: -1}
	if err := json.Unmarshal(b, &r); err != nil {
		return err
	}
	*a = Action(r)
	return nil
}

// Schedule is a declarative fault plan: a list of actions applied at
// their virtual times. The zero schedule injects nothing.
type Schedule struct {
	// Name labels the schedule in errors and logs.
	Name    string   `json:"name,omitempty"`
	Actions []Action `json:"actions"`

	// src and lines carry source positions for schedules that came from
	// JSON: the file label and the 1-based line each action starts on.
	// Code-built schedules leave them empty and get index-only errors.
	src   string
	lines []int
}

// actionKeys is the strict field set of one action object; Parse rejects
// anything else with the offending line, so a typo ("untils_s") fails
// loudly instead of silently injecting a different fault.
var actionKeys = map[string]bool{
	"op": true, "at_s": true, "until_s": true, "node": true,
	"prob": true, "extra_s": true, "src": true, "dst": true,
}

// Parse decodes a schedule from JSON and validates it strictly: unknown
// fields, unknown ops, missing required fields and inverted time windows
// are all reported with the line they appear on.
func Parse(data []byte) (*Schedule, error) {
	var s Schedule
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("fault: parse schedule: %w", err)
	}
	s.src = "schedule"
	if err := s.strictCheck(data); err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Load reads and parses a schedule file; errors carry path:line.
func Load(path string) (*Schedule, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("fault: %w", err)
	}
	s, err := Parse(data)
	if err != nil {
		return nil, err
	}
	s.src = path
	// Re-validate so any deferred (line-annotated) message names the file.
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// lineAt converts a byte offset into a 1-based line number.
func lineAt(data []byte, off int) int {
	if off > len(data) {
		off = len(data)
	}
	return 1 + bytes.Count(data[:off], []byte{'\n'})
}

// strictCheck re-walks the raw JSON to (a) record the line each action
// starts on and (b) reject unknown action fields. It runs after the
// permissive decode, so data is known to be well-formed JSON.
func (s *Schedule) strictCheck(data []byte) error {
	var top struct {
		Name    json.RawMessage   `json:"name"`
		Actions []json.RawMessage `json:"actions"`
	}
	if err := json.Unmarshal(data, &top); err != nil {
		return fmt.Errorf("fault: parse schedule: %w", err)
	}
	s.lines = make([]int, len(top.Actions))
	cursor := 0
	for i, raw := range top.Actions {
		// Locate this action's opening brace in the source text: raw is a
		// verbatim sub-slice of data, so searching from the previous
		// action's end finds the exact byte offset, hence the line.
		off := bytes.Index(data[cursor:], raw)
		if off < 0 {
			off = 0 // defensive: fall back to line 1
		} else {
			off += cursor
			cursor = off + len(raw)
		}
		s.lines[i] = lineAt(data, off)
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(raw, &fields); err != nil {
			return fmt.Errorf("fault: %s:%d: action %d is not an object: %w",
				s.src, s.lines[i], i, err)
		}
		for k := range fields {
			if !actionKeys[k] {
				return fmt.Errorf("fault: %s:%d: action %d: unknown field %q",
					s.src, s.lines[i], i, k)
			}
		}
		if _, ok := fields["op"]; !ok {
			return fmt.Errorf("fault: %s:%d: action %d: missing field \"op\"",
				s.src, s.lines[i], i)
		}
		for _, req := range requiredKeys(s.Actions[i].Op) {
			if _, ok := fields[req]; !ok {
				return fmt.Errorf("fault: %s:%d: action %d (%s): missing field %q",
					s.src, s.lines[i], i, s.Actions[i].Op, req)
			}
		}
	}
	return nil
}

// requiredKeys lists the fields an op cannot do without. Unknown ops
// return nothing here; Validate rejects them with the op name.
func requiredKeys(op Op) []string {
	switch op {
	case OpCrash:
		return []string{"node"}
	case OpDrop, OpDuplicate:
		return []string{"prob"}
	case OpDelay:
		return []string{"prob", "extra_s"}
	}
	return nil
}

// Validate checks every action's fields for the constraints its op
// requires. Node existence is checked later, at Install time, against the
// concrete machine.
func (s *Schedule) Validate() error {
	for i := range s.Actions {
		a := &s.Actions[i]
		fail := func(format string, args ...any) error {
			loc := ""
			if i < len(s.lines) {
				loc = fmt.Sprintf("%s:%d: ", s.src, s.lines[i])
			}
			return fmt.Errorf("fault: %saction %d (%s): %s", loc, i, a.Op,
				fmt.Sprintf(format, args...))
		}
		if a.At < 0 {
			return fail("at_s %g is negative", a.At)
		}
		if a.Until != 0 && a.Until <= a.At {
			return fail("until_s %g not after at_s %g", a.Until, a.At)
		}
		switch a.Op {
		case OpCrash:
			if a.Node < 0 {
				return fail("node %d is negative", a.Node)
			}
		case OpDrop, OpDelay, OpDuplicate:
			if a.Prob <= 0 || a.Prob > 1 {
				return fail("prob %g outside (0,1]", a.Prob)
			}
			if a.Op == OpDelay && a.Extra <= 0 {
				return fail("extra_s %g must be positive", a.Extra)
			}
		default:
			return fail("unknown op")
		}
	}
	return nil
}

// defaultSchedule is the process-wide schedule new runs inherit,
// installed by the -faults flag (see tracecli). Mirrors trace.SetDefault.
var defaultSchedule *Schedule

// SetDefault installs the schedule that fault-aware runtimes inject by
// default (nil to clear).
func SetDefault(s *Schedule) { defaultSchedule = s }

// Default reports the process-wide schedule, or nil.
func Default() *Schedule { return defaultSchedule }
