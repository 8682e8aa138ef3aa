// Package callstack maintains the profilers' internal dynamic call stack.
//
// Run-time instrumentation has no static call graph ("we do not
// necessarily have any kind of extra information about the structure of
// the program in the binary code ... we needed to implement our own call
// graph.  For this purpose, an internal call stack data structure is
// dynamically created and maintained") — this package is that structure,
// fed by the EnterFC/Return analysis events and able to exclude
// OS/library routines from attribution, as tQUAAD's command-line option
// allows.
//
// The stack is also where routine identity is decided for every tool:
// OnCall interns each routine name to a dense id once and carries it on
// Frame.ID, so the per-access analysis paths index their per-kernel
// tables by an integer instead of hashing a name.
package callstack

import "fmt"

// Frame is one entry of the internal call stack.
type Frame struct {
	Name   string
	Entry  uint64
	InMain bool
	// ID is the routine's dense id within this Stack: 1, 2, ... in order
	// of first call, the same for every frame with the same Name.  Id 0
	// (NoID) is never assigned, so tools may reserve it.
	ID uint16
}

// NoID is the id no routine receives.
const NoID uint16 = 0

// MaxIDs bounds the distinct routines one Stack can name.
const MaxIDs = 1 << 16

// routine is the resolved identity of one call target.
type routine struct {
	name   string
	inMain bool
	id     uint16
}

// Resolver maps a callee entry address to its routine identity.  The ok
// result is false for addresses with no symbol (they are tracked as
// anonymous frames).
type Resolver func(target uint64) (name string, inMain bool, ok bool)

// Stack is the internal call stack.
type Stack struct {
	resolver    Resolver
	excludeLibs bool

	// targets memoises each call target's resolution, so the resolver
	// and the name interning run once per distinct target.
	targets map[uint64]routine
	ids     map[string]uint16

	frames   []Frame
	libDepth int // depth of excluded (library) frames above the top kernel

	// MaxDepth records the deepest stack observed, for diagnostics.
	MaxDepth int

	// Stacks of tools replaying in parallel are allocated back to back
	// and written on every call and return; the pad keeps one stack's
	// fields off the cache lines of the next.
	_ [64]byte
}

// New creates a stack.  When excludeLibs is set, routines outside the
// main image are not pushed; while execution is inside such a routine the
// stack attributes nothing (Current reports ok=false), which is how the
// "exclusion of memory bandwidth usage data caused by OS and library
// routine calls" option behaves.
func New(resolver Resolver, excludeLibs bool) *Stack {
	return &Stack{
		resolver:    resolver,
		excludeLibs: excludeLibs,
		targets:     make(map[uint64]routine),
		ids:         make(map[string]uint16),
	}
}

// resolve returns the routine at target, interning its name on first
// sight.  It panics once MaxIDs-1 distinct names have been handed out.
func (s *Stack) resolve(target uint64) routine {
	if r, ok := s.targets[target]; ok {
		return r
	}
	name, inMain, ok := s.resolver(target)
	if !ok {
		name, inMain = fmt.Sprintf("sub_%x", target), false
	}
	id, ok := s.ids[name]
	if !ok {
		if len(s.ids) == MaxIDs-1 {
			panic(fmt.Sprintf("callstack: more than %d distinct routines", MaxIDs-1))
		}
		id = uint16(len(s.ids) + 1)
		s.ids[name] = id
	}
	r := routine{name: name, inMain: inMain, id: id}
	s.targets[target] = r
	return r
}

// OnCall records a function call to the given entry address (the EnterFC
// analysis routine).
func (s *Stack) OnCall(target uint64) {
	r := s.resolve(target)
	if s.excludeLibs && !r.inMain {
		s.libDepth++
		return
	}
	if s.libDepth > 0 {
		// Call made from inside an excluded region: everything below
		// it stays excluded until the region unwinds.
		s.libDepth++
		return
	}
	s.frames = append(s.frames, Frame{Name: r.name, Entry: target, InMain: r.inMain, ID: r.id})
	if len(s.frames) > s.MaxDepth {
		s.MaxDepth = len(s.frames)
	}
}

// OnReturn records a function return.  Unmatched returns (returning past
// the profiler's attach point) are ignored.
func (s *Stack) OnReturn() {
	if s.libDepth > 0 {
		s.libDepth--
		return
	}
	if n := len(s.frames); n > 0 {
		s.frames = s.frames[:n-1]
	}
}

// Current returns the function currently executing according to the
// stack.  ok is false when the stack is empty or execution is inside an
// excluded library region.
func (s *Stack) Current() (Frame, bool) {
	if s.libDepth > 0 || len(s.frames) == 0 {
		return Frame{}, false
	}
	return s.frames[len(s.frames)-1], true
}

// Depth returns the number of attributable frames on the stack.
func (s *Stack) Depth() int { return len(s.frames) }

// InExcluded reports whether execution is currently inside an excluded
// library region.
func (s *Stack) InExcluded() bool { return s.libDepth > 0 }

// Frames returns a copy of the current frames, outermost first.
func (s *Stack) Frames() []Frame {
	return append([]Frame(nil), s.frames...)
}
