// Package faultinject is the repository's failpoint harness: named
// injection sites compiled into the serving runtime's store I/O, scheduler
// dispatch and evaluator-op paths, armed only by tests or an explicit
// environment variable. The chaos tests use it to prove the fault-tolerance
// invariant — a job either completes bit-identically or fails with a typed
// retryable error, never a wrong ciphertext — by forcing errors, panics and
// delays at the exact boundaries the recovery code guards.
//
// Disarmed (the production state) a failpoint costs one atomic pointer load
// and a nil check; no map lookup, no allocation, no lock. Arming installs a
// registry behind an atomic pointer, so tests can arm and disarm points
// concurrently with traffic (-race clean).
//
// Arming from the environment uses BTS_FAILPOINTS, a semicolon-separated
// list of point specs:
//
//	BTS_FAILPOINTS="serve.store.load=error;serve.op.exec=panic,skip=100,count=1;serve.sched.dispatch=delay,delay=50ms"
//
// Each spec is name=mode with optional comma-separated options:
//
//	mode    error | panic | delay
//	delay=D sleep duration for mode delay (default 10ms)
//	skip=N  let the first N hits pass before firing (default 0)
//	count=N fire at most N times, then go inert (default unlimited)
//
// Failpoint names follow <package>.<subsystem>.<site>, e.g.
// "serve.store.save"; see the serve package docs for the wired sites.
package faultinject

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Mode selects what an armed failpoint does when it fires.
type Mode uint8

const (
	// ModeError makes Eval return an *Error naming the point.
	ModeError Mode = iota
	// ModePanic makes Eval panic with an *Error value; the surrounding
	// recovery boundary (job runner, job dispatch) must convert it into a
	// clean job failure.
	ModePanic
	// ModeDelay makes Eval sleep for Spec.Delay and return nil — the
	// slow-path injection for deadline and queued-job testing.
	ModeDelay
)

func (m Mode) String() string {
	switch m {
	case ModeError:
		return "error"
	case ModePanic:
		return "panic"
	case ModeDelay:
		return "delay"
	}
	return fmt.Sprintf("Mode(%d)", uint8(m))
}

// Spec is one armed failpoint's behavior.
type Spec struct {
	Mode Mode
	// Delay is the sleep for ModeDelay (default 10ms when zero).
	Delay time.Duration
	// Skip lets the first Skip evaluations pass before the point fires.
	Skip int64
	// Count bounds how many times the point fires; 0 means unlimited.
	Count int64
}

// Error is the failure Eval returns (ModeError) or panics with (ModePanic).
// The serving layer maps it to its retryable error taxonomy: an injected
// fault is by construction transient, so surviving a retry is exactly the
// invariant under test.
type Error struct {
	Point string
	Mode  Mode
}

func (e *Error) Error() string {
	return fmt.Sprintf("faultinject: point %q fired (%s)", e.Point, e.Mode)
}

// point is the armed state of one failpoint.
type point struct {
	spec Spec
	hits atomic.Int64 // evaluations seen
}

// registry is an immutable map snapshot; arming/disarming builds a new one
// and swaps the pointer, so Eval never takes a lock. The per-point hit
// counters are shared across snapshots by pointer, surviving unrelated
// Arm/Disarm calls.
type registry struct {
	points map[string]*point
}

var (
	active atomic.Pointer[registry]
	armMu  sync.Mutex // serializes Arm/Disarm/Reset snapshot swaps
)

// Eval evaluates the named failpoint: nil when nothing is armed (the
// common case, one atomic load), otherwise the armed behavior — an error,
// a panic, or a delay. Call it at the top of the guarded operation.
func Eval(name string) error {
	reg := active.Load()
	if reg == nil {
		return nil
	}
	p, ok := reg.points[name]
	if !ok {
		return nil
	}
	hit := p.hits.Add(1)
	if hit <= p.spec.Skip {
		return nil
	}
	if p.spec.Count > 0 && hit > p.spec.Skip+p.spec.Count {
		return nil
	}
	switch p.spec.Mode {
	case ModePanic:
		panic(&Error{Point: name, Mode: ModePanic})
	case ModeDelay:
		d := p.spec.Delay
		if d <= 0 {
			d = 10 * time.Millisecond
		}
		time.Sleep(d)
		return nil
	default:
		return &Error{Point: name, Mode: ModeError}
	}
}

// Arm installs (or replaces) the named failpoint. The hit counter starts at
// zero even when replacing an existing spec.
func Arm(name string, spec Spec) {
	armMu.Lock()
	defer armMu.Unlock()
	next := clone(active.Load())
	next.points[name] = &point{spec: spec}
	active.Store(next)
}

// Disarm removes the named failpoint; removing the last one restores the
// nil registry (and the one-atomic-load fast path).
func Disarm(name string) {
	armMu.Lock()
	defer armMu.Unlock()
	reg := active.Load()
	if reg == nil {
		return
	}
	if _, ok := reg.points[name]; !ok {
		return
	}
	next := clone(reg)
	delete(next.points, name)
	if len(next.points) == 0 {
		active.Store(nil)
		return
	}
	active.Store(next)
}

// Reset disarms every failpoint.
func Reset() {
	armMu.Lock()
	defer armMu.Unlock()
	active.Store(nil)
}

// Hits reports how many times the named failpoint has been evaluated since
// it was armed (fired or not), 0 when it is not armed.
func Hits(name string) int64 {
	reg := active.Load()
	if reg == nil {
		return 0
	}
	p, ok := reg.points[name]
	if !ok {
		return 0
	}
	return p.hits.Load()
}

func clone(reg *registry) *registry {
	next := &registry{points: make(map[string]*point)}
	if reg != nil {
		for name, p := range reg.points {
			next.points[name] = p
		}
	}
	return next
}

// ArmFromSpec parses and arms a BTS_FAILPOINTS-style spec string (see the
// package docs for the grammar). An empty string is a no-op. Points arm
// atomically: on a parse error nothing is armed.
func ArmFromSpec(env string) error {
	env = strings.TrimSpace(env)
	if env == "" {
		return nil
	}
	parsed := make(map[string]Spec)
	for _, entry := range strings.Split(env, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, rest, ok := strings.Cut(entry, "=")
		name = strings.TrimSpace(name)
		if !ok || name == "" {
			return fmt.Errorf("faultinject: bad spec %q (want name=mode[,opt=v...])", entry)
		}
		var spec Spec
		for i, field := range strings.Split(rest, ",") {
			field = strings.TrimSpace(field)
			if i == 0 {
				switch field {
				case "error":
					spec.Mode = ModeError
				case "panic":
					spec.Mode = ModePanic
				case "delay":
					spec.Mode = ModeDelay
				default:
					return fmt.Errorf("faultinject: point %q: unknown mode %q", name, field)
				}
				continue
			}
			k, v, ok := strings.Cut(field, "=")
			if !ok {
				return fmt.Errorf("faultinject: point %q: bad option %q", name, field)
			}
			switch k {
			case "delay":
				d, err := time.ParseDuration(v)
				if err != nil || d < 0 {
					return fmt.Errorf("faultinject: point %q: bad delay %q", name, v)
				}
				spec.Delay = d
			case "skip":
				n, err := strconv.ParseInt(v, 10, 64)
				if err != nil || n < 0 {
					return fmt.Errorf("faultinject: point %q: bad skip %q", name, v)
				}
				spec.Skip = n
			case "count":
				n, err := strconv.ParseInt(v, 10, 64)
				if err != nil || n < 0 {
					return fmt.Errorf("faultinject: point %q: bad count %q", name, v)
				}
				spec.Count = n
			default:
				return fmt.Errorf("faultinject: point %q: unknown option %q", name, k)
			}
		}
		parsed[name] = spec
	}
	for name, spec := range parsed {
		Arm(name, spec)
	}
	return nil
}
