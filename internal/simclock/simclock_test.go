package simclock

import (
	"testing"
	"time"
)

func TestZeroScaleNoSleep(t *testing.T) {
	c := New(0)
	start := time.Now()
	c.Sleep(10 * time.Second)
	if time.Since(start) > 100*time.Millisecond {
		t.Fatal("zero scale must not sleep")
	}
	if c.VirtualSpent() != 10*time.Second {
		t.Fatalf("virtual accounting: %v", c.VirtualSpent())
	}
}

func TestScaledSleep(t *testing.T) {
	c := New(0.1)
	start := time.Now()
	c.Sleep(100 * time.Millisecond) // 10ms wall
	el := time.Since(start)
	if el < 8*time.Millisecond || el > 80*time.Millisecond {
		t.Fatalf("scaled sleep off: %v", el)
	}
}

func TestPreciseShortSleep(t *testing.T) {
	c := New(1)
	start := time.Now()
	for i := 0; i < 20; i++ {
		c.Sleep(50 * time.Microsecond)
	}
	el := time.Since(start)
	if el < 900*time.Microsecond {
		t.Fatalf("short sleeps too fast: %v", el)
	}
	if el > 20*time.Millisecond {
		t.Fatalf("short sleeps too slow (timer floor leaking): %v", el)
	}
}

func TestNegativeSleepNoop(t *testing.T) {
	c := New(1)
	c.Sleep(-time.Second)
	if c.VirtualSpent() != 0 {
		t.Fatal("negative sleep must be ignored")
	}
}
