package callstack_test

import (
	"fmt"
	"math/rand"
	"testing"

	"tquad/internal/callstack"
)

// resolver with three app routines and one library routine.
func testResolver(target uint64) (string, bool, bool) {
	switch target {
	case 0x100:
		return "main", true, true
	case 0x200:
		return "work", true, true
	case 0x300:
		return "leaf", true, true
	case 0x900:
		return "memcpy", false, true // library image
	}
	return "", false, false
}

func TestBasicPushPop(t *testing.T) {
	s := callstack.New(testResolver, false)
	s.OnCall(0x100)
	s.OnCall(0x200)
	fr, ok := s.Current()
	if !ok || fr.Name != "work" {
		t.Fatalf("Current = %+v/%v, want work", fr, ok)
	}
	s.OnReturn()
	fr, _ = s.Current()
	if fr.Name != "main" {
		t.Fatalf("after return: %s", fr.Name)
	}
	s.OnReturn()
	if _, ok := s.Current(); ok {
		t.Fatalf("empty stack reports a frame")
	}
	if s.MaxDepth != 2 {
		t.Fatalf("MaxDepth = %d", s.MaxDepth)
	}
}

func TestUnmatchedReturnIgnored(t *testing.T) {
	s := callstack.New(testResolver, false)
	s.OnReturn() // returning past the attach point
	s.OnCall(0x100)
	if fr, ok := s.Current(); !ok || fr.Name != "main" {
		t.Fatalf("stack corrupted by unmatched return: %+v/%v", fr, ok)
	}
}

func TestUnknownTargetGetsAnonymousFrame(t *testing.T) {
	s := callstack.New(testResolver, false)
	s.OnCall(0xdead)
	fr, ok := s.Current()
	if !ok || fr.Name != fmt.Sprintf("sub_%x", 0xdead) {
		t.Fatalf("anonymous frame = %+v/%v", fr, ok)
	}
	if fr.InMain {
		t.Fatalf("unknown frame must not claim the main image")
	}
}

func TestLibraryInclusion(t *testing.T) {
	// Without exclusion, library routines are attributed normally.
	s := callstack.New(testResolver, false)
	s.OnCall(0x100)
	s.OnCall(0x900)
	fr, ok := s.Current()
	if !ok || fr.Name != "memcpy" || fr.InMain {
		t.Fatalf("library frame = %+v/%v", fr, ok)
	}
}

func TestLibraryExclusion(t *testing.T) {
	s := callstack.New(testResolver, true)
	s.OnCall(0x100) // main
	s.OnCall(0x900) // memcpy: excluded
	if _, ok := s.Current(); ok {
		t.Fatalf("excluded region still attributes")
	}
	if !s.InExcluded() {
		t.Fatalf("InExcluded = false inside library")
	}
	// A call made from inside the excluded region stays excluded, even
	// into a main-image routine (the region unwinds as a whole).
	s.OnCall(0x300)
	if _, ok := s.Current(); ok {
		t.Fatalf("callback from library must stay excluded")
	}
	s.OnReturn() // leaf returns
	s.OnReturn() // memcpy returns
	fr, ok := s.Current()
	if !ok || fr.Name != "main" {
		t.Fatalf("after unwinding library: %+v/%v", fr, ok)
	}
	if s.InExcluded() {
		t.Fatalf("still excluded after unwind")
	}
}

func TestFramesSnapshot(t *testing.T) {
	s := callstack.New(testResolver, false)
	s.OnCall(0x100)
	s.OnCall(0x200)
	s.OnCall(0x300)
	frames := s.Frames()
	want := []string{"main", "work", "leaf"}
	if len(frames) != 3 {
		t.Fatalf("frames = %v", frames)
	}
	for i, w := range want {
		if frames[i].Name != w {
			t.Errorf("frame %d = %s, want %s", i, frames[i].Name, w)
		}
	}
	// Mutating the snapshot must not affect the stack.
	frames[0].Name = "corrupted"
	if s.Frames()[0].Name != "main" {
		t.Fatalf("Frames returned aliased storage")
	}
}

// TestDepthInvariant: under random call/return sequences the depth always
// equals pushes minus matched pops and never goes negative.
func TestDepthInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		excl := trial%2 == 0
		s := callstack.New(testResolver, excl)
		model := 0    // expected attributable depth
		libDepth := 0 // expected excluded depth
		targets := []uint64{0x100, 0x200, 0x300, 0x900, 0xbeef}
		for op := 0; op < 2000; op++ {
			if rng.Intn(2) == 0 {
				tgt := targets[rng.Intn(len(targets))]
				s.OnCall(tgt)
				isLib := tgt == 0x900 || tgt == 0xbeef
				switch {
				case excl && libDepth > 0:
					libDepth++
				case excl && isLib:
					libDepth++
				default:
					model++
				}
			} else {
				s.OnReturn()
				if libDepth > 0 {
					libDepth--
				} else if model > 0 {
					model--
				}
			}
			if s.Depth() != model {
				t.Fatalf("trial %d op %d: depth %d, model %d", trial, op, s.Depth(), model)
			}
			if s.InExcluded() != (libDepth > 0) {
				t.Fatalf("trial %d op %d: excluded %v, model %d", trial, op, s.InExcluded(), libDepth)
			}
		}
	}
}

// TestFrameIDsAreDenseAndNameKeyed: ids start at 1 in first-call order,
// every frame of one routine carries the same id, two targets that
// resolve to the same name share it, and anonymous targets get their own.
func TestFrameIDsAreDenseAndNameKeyed(t *testing.T) {
	alias := func(target uint64) (string, bool, bool) {
		if target == 0x208 { // a second entry into "work"
			return "work", true, true
		}
		return testResolver(target)
	}
	s := callstack.New(alias, false)
	id := func(target uint64) uint16 {
		t.Helper()
		s.OnCall(target)
		fr, ok := s.Current()
		if !ok {
			t.Fatalf("call %#x: no frame", target)
		}
		s.OnReturn()
		return fr.ID
	}
	seq := []struct {
		target uint64
		want   uint16
	}{
		{0x100, 1}, {0x200, 2}, {0x100, 1}, {0x208, 2}, {0xdead, 3}, {0x900, 4}, {0xbeef, 5}, {0xdead, 3},
	}
	for _, c := range seq {
		if got := id(c.target); got != c.want {
			t.Errorf("call %#x: ID = %d, want %d", c.target, got, c.want)
		}
	}
	for _, fr := range s.Frames() {
		if fr.ID == callstack.NoID {
			t.Errorf("frame %s has the reserved id", fr.Name)
		}
	}
}

// TestFrameIDsUnderExclusion: routines skipped by library exclusion do
// not disturb the ids of the frames that are pushed.
func TestFrameIDsUnderExclusion(t *testing.T) {
	s := callstack.New(testResolver, true)
	s.OnCall(0x100)
	s.OnCall(0x900) // excluded
	s.OnReturn()
	s.OnCall(0x200)
	fr, ok := s.Current()
	if !ok || fr.Name != "work" || fr.ID == callstack.NoID {
		t.Fatalf("frame after excluded call = %+v/%v", fr, ok)
	}
	s.OnReturn()
	s.OnCall(0x200)
	if again, _ := s.Current(); again.ID != fr.ID {
		t.Fatalf("work re-entered with id %d, first id %d", again.ID, fr.ID)
	}
}

// TestIDSpaceExhaustion: the last id handed out is MaxIDs-1; one more
// distinct routine is a loud failure, not a wrapped id aliasing NoID.
func TestIDSpaceExhaustion(t *testing.T) {
	s := callstack.New(func(target uint64) (string, bool, bool) {
		return fmt.Sprintf("r%d", target), true, true
	}, false)
	for tgt := uint64(1); tgt < callstack.MaxIDs; tgt++ {
		s.OnCall(tgt)
		s.OnReturn()
	}
	s.OnCall(callstack.MaxIDs - 1)
	if fr, _ := s.Current(); fr.ID != callstack.MaxIDs-1 {
		t.Fatalf("last id = %d, want %d", fr.ID, callstack.MaxIDs-1)
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("routine %d got an id", callstack.MaxIDs)
		}
	}()
	s.OnCall(callstack.MaxIDs)
}
