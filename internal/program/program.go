// Package program is the reactive, event-driven node programming model of
// Section 4.3: a program is a set of guarded commands (Condition/Action
// clauses, paper Figure 4) over a per-node state, driven by an
// asynchronous stream of incoming messages. The paper assumes exactly this
// model is what code-generation frameworks for sensor nodes accept, so the
// synthesis stage (internal/synth) targets it.
//
// A program is one rule set shared by every node of a run (Spec) plus one
// typed state per node whose fields are the program's Figure 4 variables
// (the S of Spec[S]). An engine instantiates the spec once per run: New
// makes the states, the instances, and their rule counters as one slice
// each.
//
// Semantics: rules are inspected in declaration order; the first rule whose
// guard holds fires; firing repeats until no guard holds (quiescence).
// Message arrival enqueues the message and re-enters the loop — the
// interpreter itself never blocks waiting for a specific message, which is
// what lets synthesized programs process incoming information incrementally
// the way Section 4.3 prescribes.
package program

import (
	"fmt"
	"strings"
)

// Env is a node's queue of received-but-unprocessed messages.
type Env struct {
	inbox []any
	head  int // index of the oldest queued message
}

// Deliver enqueues a received message for rule consumption.
func (e *Env) Deliver(msg any) { e.inbox = append(e.inbox, msg) }

// PeekMsg returns the oldest undelivered message without consuming it, or
// nil if the inbox is empty. Guards use it to pattern-match.
func (e *Env) PeekMsg() any {
	if e.head == len(e.inbox) {
		return nil
	}
	return e.inbox[e.head]
}

// TakeMsg consumes and returns the oldest message. It panics on an empty
// inbox — actions must only take what their guard saw. Once the queue
// empties, the next Deliver reuses its backing array from the start.
func (e *Env) TakeMsg() any {
	if e.head == len(e.inbox) {
		panic("program: TakeMsg on empty inbox")
	}
	m := e.inbox[e.head]
	e.inbox[e.head] = nil
	e.head++
	if e.head == len(e.inbox) {
		e.inbox, e.head = e.inbox[:0], 0
	}
	return m
}

// InboxLen returns the number of queued messages.
func (e *Env) InboxLen() int { return len(e.inbox) - e.head }

// Effector is the set of externally visible effects an action may perform.
// The virtual architecture (or the goroutine runtime) supplies the
// implementation; the program never sees anything lower-level.
type Effector interface {
	// Send transmits payload of the given size to the sender's level-k
	// group leader (the paper's group-communication primitive).
	Send(level int, size int64, payload any)
	// Exfiltrate delivers a final result out of the network.
	Exfiltrate(result any)
	// Compute charges local processing of the given data volume.
	Compute(units int64)
	// Sense charges one sensor reading.
	Sense(units int64)
}

// Rule is one guarded command over a node's state S: a Condition/Action
// clause of Figure 4.
type Rule[S any] struct {
	Name      string
	Condition string // human-readable guard, for the synthesized listing
	Effect    string // human-readable action, for the synthesized listing
	Guard     func(s *S, e *Env) bool
	Action    func(s *S, e *Env, fx Effector)
}

// Spec is a synthesized program: the ordered rule set every node runs and
// the initializer of their states.
type Spec[S any] struct {
	Title string
	Rules []Rule[S]
	// Init sets up every node's initial state; states[i] belongs to the
	// node at grid index i.
	Init func(states []S)
}

// Listing renders the program in the Condition/Action style of paper
// Figure 4 — the artifact the synthesis stage hands to the node runtime.
func (s *Spec[S]) Listing() string {
	var b strings.Builder
	fmt.Fprintf(&b, "program %s\n", s.Title)
	for _, r := range s.Rules {
		fmt.Fprintf(&b, "\nCondition : %s\nAction    : %s\n", r.Condition, indent(r.Effect))
	}
	return b.String()
}

func indent(s string) string {
	return strings.ReplaceAll(s, "\n", "\n            ")
}

// MaxSteps bounds the rule firings of one activation; a correct program
// fires O(levels) rules per event, so exceeding it means a livelocked rule
// set — a synthesis bug, not a runtime condition.
const MaxSteps = 1 << 16

// Instance is a running copy of a Spec on one node.
type Instance[S any] struct {
	State *S
	Env   Env

	run  *runState[S]
	fx   Effector
	node int
}

// runState is what the instances of one New call share: the spec, the fire
// hook, and every instance's per-rule fire counters (instance i owns
// fired[i*len(Rules):(i+1)*len(Rules)], so instances on different
// goroutines never write the same slot).
type runState[S any] struct {
	spec  *Spec[S]
	hook  func(node int, rule string)
	fired []int64
}

// New instantiates spec on nodes 0..n-1: the states, initialized by
// spec.Init, the instances, the per-rule fire counters, and a first inbox
// slot per node are one slice each. Instance i runs on node i with
// effector fx(i).
func New[S any](spec *Spec[S], n int, fx func(i int) Effector) []Instance[S] {
	states := make([]S, n)
	if spec.Init != nil {
		spec.Init(states)
	}
	rs := &runState[S]{spec: spec, fired: make([]int64, n*len(spec.Rules))}
	// The engines deliver one message per activation, so one slot is all
	// an inbox ever holds there; a deeper queue grows its own array.
	slots := make([]any, n)
	insts := make([]Instance[S], n)
	for i := range insts {
		insts[i] = Instance[S]{State: &states[i], Env: Env{inbox: slots[i : i : i+1]}, run: rs, fx: fx(i), node: i}
	}
	return insts
}

// SetFireHook installs an observer on every instance New made together
// with insts: h is called with the node and the rule's name each time a
// rule is about to fire (after its guard passed, before its action runs,
// so the firing notice precedes the action's own effects in a trace). Nil
// disables; the default. The observability drivers use this to emit
// RuleFire events without the interpreter knowing about tracing.
func SetFireHook[S any](insts []Instance[S], h func(node int, rule string)) {
	if len(insts) > 0 {
		insts[0].run.hook = h
	}
}

// Step evaluates guards in order and fires the first enabled rule.
// It reports whether any rule fired.
func (inst *Instance[S]) Step() bool {
	rs := inst.run
	rules := rs.spec.Rules
	for i := range rules {
		r := &rules[i]
		if r.Guard(inst.State, &inst.Env) {
			if rs.hook != nil {
				rs.hook(inst.node, r.Name)
			}
			r.Action(inst.State, &inst.Env, inst.fx)
			rs.fired[inst.node*len(rules)+i]++
			return true
		}
	}
	return false
}

// RunToQuiescence fires rules until none is enabled, returning the number
// fired. It panics after MaxSteps firings.
func (inst *Instance[S]) RunToQuiescence() int {
	n := 0
	for inst.Step() {
		n++
		if n > MaxSteps {
			panic(fmt.Sprintf("program: no quiescence after %d steps in %q on node %d", MaxSteps, inst.run.spec.Title, inst.node))
		}
	}
	return n
}

// OnMessage delivers msg and runs to quiescence.
func (inst *Instance[S]) OnMessage(msg any) int {
	inst.Env.Deliver(msg)
	return inst.RunToQuiescence()
}

// Fired sums the rule firings of insts: the total, and the per-rule
// counts indexed like Spec.Rules — the synthesis-coverage report: a rule
// that never fires across a whole test campaign is dead weight or a
// latent bug.
func Fired[S any](insts []Instance[S]) (total int64, byRule []int64) {
	if len(insts) == 0 {
		return 0, nil
	}
	r := len(insts[0].run.spec.Rules)
	byRule = make([]int64, r)
	for i := range insts {
		inst := &insts[i]
		for j, c := range inst.run.fired[inst.node*r : (inst.node+1)*r] {
			byRule[j] += c
			total += c
		}
	}
	return total, byRule
}
