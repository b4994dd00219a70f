package faultinject

import (
	"errors"
	"sort"
	"sync"
	"testing"
	"time"
)

func TestDisarmedIsNil(t *testing.T) {
	Reset()
	if active.Load() != nil {
		t.Fatal("registry non-nil with nothing armed")
	}
	if err := Eval("serve.store.load"); err != nil {
		t.Fatalf("disarmed Eval returned %v", err)
	}
}

func TestErrorMode(t *testing.T) {
	Reset()
	defer Reset()
	Arm("p.err", Spec{Mode: ModeError})
	err := Eval("p.err")
	var fe *Error
	if !errors.As(err, &fe) || fe.Point != "p.err" {
		t.Fatalf("got %v, want *Error for p.err", err)
	}
	if err := Eval("p.other"); err != nil {
		t.Fatalf("unarmed sibling point fired: %v", err)
	}
}

func TestPanicMode(t *testing.T) {
	Reset()
	defer Reset()
	Arm("p.panic", Spec{Mode: ModePanic})
	defer func() {
		r := recover()
		fe, ok := r.(*Error)
		if !ok || fe.Point != "p.panic" || fe.Mode != ModePanic {
			t.Fatalf("recovered %v, want *Error{p.panic, panic}", r)
		}
	}()
	_ = Eval("p.panic")
	t.Fatal("Eval did not panic")
}

func TestDelayMode(t *testing.T) {
	Reset()
	defer Reset()
	Arm("p.delay", Spec{Mode: ModeDelay, Delay: 30 * time.Millisecond})
	start := time.Now()
	if err := Eval("p.delay"); err != nil {
		t.Fatalf("delay mode returned error %v", err)
	}
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Fatalf("delay point slept only %v", d)
	}
}

func TestSkipAndCount(t *testing.T) {
	Reset()
	defer Reset()
	Arm("p.window", Spec{Mode: ModeError, Skip: 2, Count: 3})
	var fired int
	for i := 0; i < 10; i++ {
		if Eval("p.window") != nil {
			fired++
			if i < 2 {
				t.Fatalf("fired during skip window at hit %d", i)
			}
		}
	}
	if fired != 3 {
		t.Fatalf("fired %d times, want 3", fired)
	}
	if Hits("p.window") != 10 {
		t.Fatalf("Hits = %d, want 10", Hits("p.window"))
	}
}

func TestDisarmRestoresFastPath(t *testing.T) {
	Reset()
	Arm("a", Spec{Mode: ModeError})
	Arm("b", Spec{Mode: ModeError})
	Disarm("a")
	if Eval("a") != nil {
		t.Fatal("disarmed point still fires")
	}
	if Eval("b") == nil {
		t.Fatal("surviving point stopped firing")
	}
	Disarm("b")
	if active.Load() != nil {
		t.Fatal("registry not nil after last Disarm")
	}
}

func TestArmFromSpec(t *testing.T) {
	Reset()
	defer Reset()
	err := ArmFromSpec("serve.store.load=error; serve.op.exec=panic,skip=5,count=2 ;x=delay,delay=1ms")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for name := range active.Load().points {
		got = append(got, name)
	}
	sort.Strings(got)
	want := []string{"serve.op.exec", "serve.store.load", "x"}
	if len(got) != len(want) {
		t.Fatalf("armed points = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("armed points = %v, want %v", got, want)
		}
	}
	if Eval("serve.store.load") == nil {
		t.Fatal("env-armed error point did not fire")
	}

	for _, bad := range []string{
		"noequals", "p=frobnicate", "p=error,delay=zzz", "p=error,skip=-1",
		"p=error,count=x", "p=error,bogus=1", "=error",
	} {
		if err := ArmFromSpec(bad); err == nil {
			t.Errorf("spec %q parsed, want error", bad)
		}
	}
}

func TestConcurrentArmEval(t *testing.T) {
	Reset()
	defer Reset()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = Eval("p.race")
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		Arm("p.race", Spec{Mode: ModeDelay, Delay: time.Microsecond})
		Disarm("p.race")
	}
	close(stop)
	wg.Wait()
}
