package rtos

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestUtilizationBoundValues(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{1, 1.0},
		{2, 0.828},
		{3, 0.780},
		{10, 0.718},
	}
	for _, c := range cases {
		got := UtilizationBound(c.n)
		if math.Abs(got-c.want) > 0.001 {
			t.Errorf("UB(%d) = %.3f, want %.3f", c.n, got, c.want)
		}
	}
	if UtilizationBound(0) != 0 {
		t.Error("UB(0) != 0")
	}
}

func TestUBBoundDecreasesTowardLn2(t *testing.T) {
	f := func(n uint8) bool {
		k := int(n%50) + 1
		ub := UtilizationBound(k)
		return ub >= math.Ln2-1e-9 && ub <= 1.0+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSchedulableUBAccepts(t *testing.T) {
	ts := AssignRM(TaskSet{
		{ID: "a", Period: ms(100), WCET: ms(20)},
		{ID: "b", Period: ms(200), WCET: ms(40)},
	}) // U = 0.4 <= 0.828
	if !SchedulableUB(ts) {
		t.Fatal("feasible set rejected by UB")
	}
}

func TestSchedulableUBRejectsOverload(t *testing.T) {
	ts := AssignRM(TaskSet{
		{ID: "a", Period: ms(100), WCET: ms(60)},
		{ID: "b", Period: ms(200), WCET: ms(90)},
	}) // U = 1.05
	if SchedulableUB(ts) {
		t.Fatal("overloaded set accepted by UB")
	}
}

func TestRTAClassicExample(t *testing.T) {
	// Classic 3-task RM example: T=(50,80,100) C=(10,20,30).
	// R1=10, R2=30, R3=10+10+20+30? compute: all schedulable, U=0.75.
	ts := AssignRM(TaskSet{
		{ID: "t1", Period: ms(50), WCET: ms(10)},
		{ID: "t2", Period: ms(80), WCET: ms(20)},
		{ID: "t3", Period: ms(100), WCET: ms(30)},
	})
	r1, ok1 := ResponseTime(ts, "t1")
	if !ok1 || r1 != ms(10) {
		t.Fatalf("R(t1) = %v ok=%v, want 10ms", r1, ok1)
	}
	r2, ok2 := ResponseTime(ts, "t2")
	if !ok2 || r2 != ms(30) {
		t.Fatalf("R(t2) = %v ok=%v, want 30ms", r2, ok2)
	}
	r3, ok3 := ResponseTime(ts, "t3")
	if !ok3 {
		t.Fatalf("R(t3) = %v not schedulable", r3)
	}
	// R3 = 30 + ceil(R/50)*10 + ceil(R/80)*20: fixed point at 80:
	// 30+20+20=70 -> 30+20+20=70? iterate: r=30: 30+10+20=60; r=60:
	// 30+20+20=70; r=70: 30+20+20=70. Fixed point 70.
	if r3 != ms(70) {
		t.Fatalf("R(t3) = %v, want 70ms", r3)
	}
}

func TestRTAAcceptsWhatUBRejects(t *testing.T) {
	// U = 0.9 > UB(2) = 0.828, yet harmonic periods make it feasible.
	ts := AssignRM(TaskSet{
		{ID: "a", Period: ms(100), WCET: ms(50)},
		{ID: "b", Period: ms(200), WCET: ms(80)},
	})
	if SchedulableUB(ts) {
		t.Fatal("UB accepted U=0.9 with 2 tasks")
	}
	if !SchedulableRTA(ts) {
		t.Fatal("RTA rejected a feasible harmonic set")
	}
}

func TestRTARejectsInfeasible(t *testing.T) {
	ts := AssignRM(TaskSet{
		{ID: "a", Period: ms(100), WCET: ms(60)},
		{ID: "b", Period: ms(150), WCET: ms(80)},
	}) // U = 1.13
	if SchedulableRTA(ts) {
		t.Fatal("RTA accepted an overloaded set")
	}
}

func TestAdmitGrowsSet(t *testing.T) {
	base := AssignRM(TaskSet{{ID: "a", Period: ms(100), WCET: ms(20)}})
	grown, ok := Admit(base, Task{ID: "b", Period: ms(50), WCET: ms(10)}, TestRTA)
	if !ok {
		t.Fatal("feasible admission rejected")
	}
	if len(grown) != 2 {
		t.Fatalf("grown set has %d tasks", len(grown))
	}
	// RM must have put b (shorter period) at higher priority.
	b, _ := grown.Find("b")
	a, _ := grown.Find("a")
	if b.Priority >= a.Priority {
		t.Fatal("RM priorities not reassigned on admission")
	}
}

func TestAdmitRejects(t *testing.T) {
	base := AssignRM(TaskSet{{ID: "a", Period: ms(100), WCET: ms(70)}})
	if _, ok := Admit(base, Task{ID: "b", Period: ms(100), WCET: ms(50)}, TestRTA); ok {
		t.Fatal("overload admitted")
	}
	if _, ok := Admit(base, Task{ID: "a", Period: ms(100), WCET: ms(1)}, TestRTA); ok {
		t.Fatal("duplicate ID admitted")
	}
	if _, ok := Admit(base, Task{ID: "c", Period: 0, WCET: ms(1)}, TestRTA); ok {
		t.Fatal("invalid task admitted")
	}
}

func TestUBNeverAcceptsWhatRTARejects(t *testing.T) {
	// Property: UB is sufficient — any UB-accepted implicit-deadline set
	// must also pass exact analysis.
	rngSeed := int64(1)
	f := func(p1, p2, p3 uint16) bool {
		rngSeed++
		mk := func(p uint16, id TaskID) Task {
			period := ms(int(p%200) + 10)
			wcet := period / 8
			return Task{ID: id, Period: period, WCET: wcet}
		}
		ts := AssignRM(TaskSet{mk(p1, "a"), mk(p2, "b"), mk(p3, "c")})
		if !SchedulableUB(ts) {
			return true // vacuous
		}
		return SchedulableRTA(ts)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPriorityAssignment(t *testing.T) {
	ts := TaskSet{
		{ID: "slow", Period: ms(300), WCET: ms(10)},
		{ID: "fast", Period: ms(50), WCET: ms(5)},
		{ID: "mid", Period: ms(100), WCET: ms(10)},
	}
	rm := AssignRM(ts)
	for want, id := range []TaskID{"fast", "mid", "slow"} {
		if task, _ := rm.Find(id); task.Priority != want+1 {
			t.Fatalf("RM: %s priority = %d, want %d", id, task.Priority, want+1)
		}
	}
}

func TestTaskValidation(t *testing.T) {
	bad := []Task{
		{ID: "", Period: ms(10), WCET: ms(1)},
		{ID: "x", Period: 0, WCET: ms(1)},
		{ID: "x", Period: ms(10), WCET: 0},
		{ID: "x", Period: ms(10), WCET: ms(20)},
	}
	for i, b := range bad {
		if err := b.Validate(); err == nil {
			t.Errorf("case %d: invalid task accepted: %+v", i, b)
		}
	}
	dup := TaskSet{
		{ID: "x", Period: ms(10), WCET: ms(1)},
		{ID: "x", Period: ms(20), WCET: ms(1)},
	}
	if err := dup.Validate(); err == nil {
		t.Error("duplicate IDs accepted")
	}
}

func TestTaskSetHelpers(t *testing.T) {
	ts := TaskSet{
		{ID: "a", Period: ms(10), WCET: ms(2)},
		{ID: "b", Period: ms(20), WCET: ms(4)},
	}
	if u := ts.Utilization(); math.Abs(u-0.4) > 1e-9 {
		t.Fatalf("utilization = %f", u)
	}
	if _, ok := ts.Find("b"); !ok {
		t.Fatal("Find failed")
	}
	less := ts.Without("a")
	if len(less) != 1 || less[0].ID != "b" {
		t.Fatalf("Without = %+v", less)
	}
}

// simulateWorstResponse schedules ts fixed-priority preemptively in 1 ms
// steps from a critical instant (every task released at 0) over one
// hyperperiod and returns each task's worst response time. It fails the
// test if a job is still running when its successor is released.
func simulateWorstResponse(t *testing.T, ts TaskSet) map[TaskID]time.Duration {
	t.Helper()
	hyper := ms(1)
	for _, task := range ts {
		a, b := hyper, task.Period
		for b != 0 {
			a, b = b, a%b
		}
		hyper = hyper / a * task.Period
	}
	left := make([]time.Duration, len(ts)) // work left in the current job
	released := make([]time.Duration, len(ts))
	worst := make(map[TaskID]time.Duration, len(ts))
	for now := time.Duration(0); now < hyper; now += ms(1) {
		run := -1
		for i, task := range ts {
			if now%task.Period == 0 {
				if left[i] > 0 {
					t.Fatalf("%s misses its deadline at %v", task.ID, now)
				}
				left[i], released[i] = task.WCET, now
			}
			if left[i] > 0 && (run < 0 || task.Priority < ts[run].Priority) {
				run = i
			}
		}
		if run < 0 {
			continue
		}
		if left[run] -= ms(1); left[run] == 0 {
			id := ts[run].ID
			worst[id] = max(worst[id], now+ms(1)-released[run])
		}
	}
	return worst
}

func TestResponseTimeMatchesSimulation(t *testing.T) {
	sets := []struct {
		name string
		ts   TaskSet
	}{
		{"classic", TaskSet{
			{ID: "t1", Period: ms(50), WCET: ms(10)},
			{ID: "t2", Period: ms(80), WCET: ms(20)},
			{ID: "t3", Period: ms(100), WCET: ms(30)},
		}},
		{"harmonic-above-ub", TaskSet{
			{ID: "a", Period: ms(100), WCET: ms(50)},
			{ID: "b", Period: ms(200), WCET: ms(80)},
		}},
		{"three-rates", TaskSet{
			{ID: "x", Period: ms(100), WCET: ms(10)},
			{ID: "y", Period: ms(40), WCET: ms(10)},
			{ID: "z", Period: ms(250), WCET: ms(30)},
		}},
		{"four-tasks", TaskSet{
			{ID: "p", Period: ms(20), WCET: ms(3)},
			{ID: "q", Period: ms(30), WCET: ms(7)},
			{ID: "r", Period: ms(60), WCET: ms(9)},
			{ID: "s", Period: ms(120), WCET: ms(12)},
		}},
	}
	for _, set := range sets {
		t.Run(set.name, func(t *testing.T) {
			ts := AssignRM(set.ts)
			worst := simulateWorstResponse(t, ts)
			for _, task := range ts {
				want, ok := ResponseTime(ts, task.ID)
				if !ok {
					t.Fatalf("RTA rejects %s", task.ID)
				}
				if worst[task.ID] != want {
					t.Errorf("%s: simulated worst response %v, RTA %v", task.ID, worst[task.ID], want)
				}
			}
		})
	}
}

func TestRMOptimalAmongFixedPriorities(t *testing.T) {
	// Liu and Layland: with implicit deadlines, when any fixed-priority
	// order schedules a set, the rate-monotonic order does too.
	orders := [][3]int{{1, 2, 3}, {1, 3, 2}, {2, 1, 3}, {2, 3, 1}, {3, 1, 2}, {3, 2, 1}}
	f := func(p, c [3]uint8) bool {
		ts := make(TaskSet, 3)
		for i := range ts {
			period := ms(int(p[i]%20)*10 + 10)
			ts[i] = Task{ID: TaskID(rune('a' + i)), Period: period, WCET: period * time.Duration(c[i]%5+1) / 10}
		}
		rm := SchedulableRTA(AssignRM(ts))
		for _, order := range orders {
			for i := range ts {
				ts[i].Priority = order[i]
			}
			if SchedulableRTA(ts) && !rm {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
