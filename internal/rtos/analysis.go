package rtos

import (
	"math"
	"time"
)

// AdmissionTest selects the schedulability test used for runtime
// admission control.
type AdmissionTest int

// Admission tests. TestUB is the Liu-Layland utilization bound (cheap,
// sufficient but not necessary); TestRTA is exact response-time analysis
// for fixed priorities.
const (
	TestUB AdmissionTest = iota + 1
	TestRTA
)

// String implements fmt.Stringer.
func (t AdmissionTest) String() string {
	switch t {
	case TestUB:
		return "utilization-bound"
	case TestRTA:
		return "response-time-analysis"
	default:
		return "unknown"
	}
}

// UtilizationBound returns the Liu-Layland bound n(2^(1/n)-1) for n tasks.
func UtilizationBound(n int) float64 {
	if n <= 0 {
		return 0
	}
	return float64(n) * (math.Pow(2, 1/float64(n)) - 1)
}

// SchedulableUB applies the utilization-bound test.
func SchedulableUB(ts TaskSet) bool {
	return ts.Utilization() <= UtilizationBound(len(ts))
}

// ResponseTime computes the worst-case response time of task in the set
// using the standard recurrence R = C + sum_hp ceil(R/T_j) C_j. It returns
// false if the recurrence diverges past the deadline (the period).
func ResponseTime(ts TaskSet, id TaskID) (time.Duration, bool) {
	target, ok := ts.Find(id)
	if !ok {
		return 0, false
	}
	var hp TaskSet
	for _, t := range ts {
		if t.ID == id {
			continue
		}
		// Higher priority = lower value; ties interfere conservatively.
		if t.Priority <= target.Priority {
			hp = append(hp, t)
		}
	}
	r := target.WCET
	for iter := 0; iter < 1000; iter++ {
		interference := time.Duration(0)
		for _, h := range hp {
			n := int64(math.Ceil(float64(r) / float64(h.Period)))
			interference += time.Duration(n) * h.WCET
		}
		next := target.WCET + interference
		if next == r {
			return r, r <= target.Period
		}
		if next > target.Period {
			return next, false
		}
		r = next
	}
	return r, false
}

// SchedulableRTA applies exact response-time analysis to every task.
func SchedulableRTA(ts TaskSet) bool {
	for _, t := range ts {
		if _, ok := ResponseTime(ts, t.ID); !ok {
			return false
		}
	}
	return true
}

// Schedulable dispatches on the admission test.
func Schedulable(ts TaskSet, test AdmissionTest) bool {
	switch test {
	case TestUB:
		return SchedulableUB(ts)
	case TestRTA:
		return SchedulableRTA(ts)
	default:
		return false
	}
}

// Admit checks whether adding task to the set keeps it schedulable, and
// returns the grown set if so. Priorities are re-assigned rate-
// monotonically as nano-RK's admission does.
func Admit(ts TaskSet, task Task, test AdmissionTest) (TaskSet, bool) {
	if err := task.Validate(); err != nil {
		return ts, false
	}
	if _, dup := ts.Find(task.ID); dup {
		return ts, false
	}
	grown := AssignRM(append(append(TaskSet(nil), ts...), task))
	if err := grown.Validate(); err != nil {
		return ts, false
	}
	if !Schedulable(grown, test) {
		return ts, false
	}
	return grown, true
}
