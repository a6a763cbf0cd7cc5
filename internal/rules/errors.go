// Package rules implements the paper's program transformation rules:
//
//   - Rule B: control-dependence to flow-dependence conversion (§III-C),
//   - Rule C1–C3 reordering primitives and the reorder/moveAfter statement
//     reordering algorithm (§IV, Figures 2–4),
//   - Rule A: loop fission for asynchronous query submission — one cut,
//     through a blocking query (§III-B) or, for nested loops (§III-D), at
//     the scan a transformed inner loop left behind, with one blocker rule,
//     one split-variable rule and one reorder engine for both,
//   - the readability regrouping pass (§V).
//
// All rules mutate IR in place; callers clone first if they need the
// original. Every rule application preserves program semantics; when a rule's
// preconditions fail, it returns a *NotApplicableError and leaves the program
// unchanged rather than risking an unsound rewrite.
package rules

import "fmt"

// Reason classifies why a transformation could not be applied; these feed the
// applicability analysis behind the paper's Table I.
type Reason string

const (
	// ReasonTrueDepCycle: the query statement lies on a cycle of flow and
	// loop-carried-flow dependences (Theorem 4.1's negative case): its
	// execution depends on its own result from a previous iteration.
	ReasonTrueDepCycle Reason = "query lies on a true-dependence cycle"
	// ReasonBarrier: the loop contains a call that must not be reordered or
	// split across (models recursive method invocations, per §VI Table I).
	ReasonBarrier Reason = "loop contains a barrier (recursive) invocation"
	// ReasonExternal: a loop-carried external anti/output dependence crosses
	// the split point and cannot be removed by reordering (precondition (b)).
	ReasonExternal Reason = "loop-carried external dependence crosses the split"
	// ReasonUnflattenable: the query sits under control flow that Rule B
	// cannot linearize (e.g. a nested loop inside a conditional).
	ReasonUnflattenable Reason = "control flow around the query cannot be flattened"
	// ReasonUnresolvable: moveAfter met a dependence between adjacent
	// statements that stubs cannot shift (a flow dependence, an external
	// dependence, or one that would need a stub inside a compound statement).
	ReasonUnresolvable Reason = "reordering blocked by an unshiftable dependence"
)

// NotApplicableError reports that a rule's preconditions do not hold.
type NotApplicableError struct {
	Rule   string
	Reason Reason
	Detail string
}

func (e *NotApplicableError) Error() string {
	if e.Detail != "" {
		return fmt.Sprintf("%s not applicable: %s (%s)", e.Rule, e.Reason, e.Detail)
	}
	return fmt.Sprintf("%s not applicable: %s", e.Rule, e.Reason)
}

// notApplicable builds a NotApplicableError.
func notApplicable(rule string, reason Reason, detail string) error {
	return &NotApplicableError{Rule: rule, Reason: reason, Detail: detail}
}
