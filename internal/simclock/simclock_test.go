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

// TestSleepFromCountsTimeAlreadyPassed: a delay that began before the call
// sleeps only what is left of it, none once it is over, and accounts all of
// it.
func TestSleepFromCountsTimeAlreadyPassed(t *testing.T) {
	c := New(1)
	start := time.Now()
	time.Sleep(20 * time.Millisecond)
	call := time.Now()
	c.SleepFrom(start, 30*time.Millisecond)
	if el := time.Since(start); el < 30*time.Millisecond {
		t.Fatalf("woke %v after start, before the 30ms delay ended", el)
	}
	if el := time.Since(call); el > 25*time.Millisecond {
		t.Fatalf("slept %v for the 10ms left of a 30ms delay", el)
	}
	call = time.Now()
	c.SleepFrom(start, 10*time.Millisecond)
	if el := time.Since(call); el > 5*time.Millisecond {
		t.Fatalf("slept %v for a delay already over", el)
	}
	if c.VirtualSpent() != 40*time.Millisecond {
		t.Fatalf("virtual accounting: %v", c.VirtualSpent())
	}
}
