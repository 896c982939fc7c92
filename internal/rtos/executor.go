package rtos

import (
	"fmt"
	"time"

	"evm/internal/sim"
)

// JobStats aggregates per-task execution statistics.
type JobStats struct {
	Released      int
	Completed     int
	DeadlineMiss  int
	Preemptions   int
	Throttled     int // suspensions due to CPU reservation enforcement
	MaxResponse   time.Duration
	TotalResponse time.Duration
}

// AvgResponse returns the mean response time of completed jobs.
func (s JobStats) AvgResponse() time.Duration {
	if s.Completed == 0 {
		return 0
	}
	return s.TotalResponse / time.Duration(s.Completed)
}

type job struct {
	task      Task
	release   time.Duration
	remaining time.Duration
	started   bool
}

// Executor simulates fully-preemptive fixed-priority scheduling of a task
// set on one node's CPU, with optional nano-RK-style CPU reservation
// enforcement. It runs entirely on virtual time.
type Executor struct {
	eng        *sim.Engine
	tasks      TaskSet
	ready      []*job
	running    *job
	runEv      *sim.Event
	chunkStart time.Duration
	stats      map[TaskID]*JobStats
	tickers    map[TaskID]*sim.Ticker
	reserves   *ReservationTable
	// OnComplete, when set, fires after every job completion with the
	// job's release and completion times.
	OnComplete func(t Task, release, finish time.Duration)
	// execTime optionally overrides WCET with an actual execution time
	// generator per task (WCET jitter).
	execTime map[TaskID]func() time.Duration
	stopped  bool
}

// NewExecutor creates an executor for the task set. The set must be valid;
// priorities must already be assigned (see AssignRM / AssignDM).
func NewExecutor(eng *sim.Engine, ts TaskSet) (*Executor, error) {
	if err := ts.Validate(); err != nil {
		return nil, err
	}
	ex := &Executor{
		eng:      eng,
		tasks:    ts.ByPriority(),
		stats:    make(map[TaskID]*JobStats, len(ts)),
		tickers:  make(map[TaskID]*sim.Ticker, len(ts)),
		reserves: NewReservationTable(),
		execTime: make(map[TaskID]func() time.Duration),
	}
	for _, t := range ts {
		ex.stats[t.ID] = &JobStats{}
	}
	return ex, nil
}

// Reserves exposes the node's reservation table.
func (ex *Executor) Reserves() *ReservationTable { return ex.reserves }

// SetExecTime installs an actual-execution-time generator for a task
// (values are clamped to WCET).
func (ex *Executor) SetExecTime(id TaskID, fn func() time.Duration) {
	ex.execTime[id] = fn
}

// Stats returns a copy of the statistics for a task.
func (ex *Executor) Stats(id TaskID) JobStats {
	if s, ok := ex.stats[id]; ok {
		return *s
	}
	return JobStats{}
}

// Tasks returns the current task set.
func (ex *Executor) Tasks() TaskSet { return append(TaskSet(nil), ex.tasks...) }

// Start begins releasing jobs at each task's phase and period.
func (ex *Executor) Start() {
	for _, t := range ex.tasks {
		ex.startTask(t)
	}
}

func (ex *Executor) startTask(t Task) {
	first := ex.eng.Now() + t.Phase
	ex.tickers[t.ID] = ex.eng.EveryAt(first, t.Period, func() { ex.release(t) })
}

// Stop cancels all future releases; in-flight jobs are abandoned.
// Tickers stop in sorted task order so engine-event cancellation — and
// therefore the engine's internal queue shape — is deterministic.
func (ex *Executor) Stop() {
	ex.stopped = true
	for _, id := range sim.SortedKeys(ex.tickers) {
		ex.tickers[id].Stop()
	}
	if ex.runEv != nil {
		ex.eng.Cancel(ex.runEv)
		ex.runEv = nil
	}
	ex.running = nil
	ex.ready = nil
}

// AddTask admits a task at runtime, subject to the schedulability test,
// and begins releasing its jobs. Returns an error if admission fails.
func (ex *Executor) AddTask(t Task, test AdmissionTest) error {
	grown, ok := Admit(ex.tasks, t, test)
	if !ok {
		return fmt.Errorf("rtos: task %s rejected by %v admission", t.ID, test)
	}
	ex.tasks = grown.ByPriority()
	if _, exists := ex.stats[t.ID]; !exists {
		ex.stats[t.ID] = &JobStats{}
	}
	admitted, _ := ex.tasks.Find(t.ID)
	ex.startTask(admitted)
	return nil
}

// RemoveTask stops releasing a task's jobs and drops it from the set
// (used when a task migrates away).
func (ex *Executor) RemoveTask(id TaskID) {
	if tk, ok := ex.tickers[id]; ok {
		tk.Stop()
		delete(ex.tickers, id)
	}
	ex.tasks = ex.tasks.Without(id)
	ex.reserves.Remove(id)
	// Drop queued jobs of the removed task.
	kept := ex.ready[:0]
	for _, j := range ex.ready {
		if j.task.ID != id {
			kept = append(kept, j)
		}
	}
	ex.ready = kept
	if ex.running != nil && ex.running.task.ID == id {
		if ex.runEv != nil {
			ex.eng.Cancel(ex.runEv)
			ex.runEv = nil
		}
		ex.running = nil
		ex.dispatch()
	}
}

func (ex *Executor) release(t Task) {
	if ex.stopped {
		return
	}
	st := ex.stats[t.ID]
	st.Released++
	exec := t.WCET
	if fn, ok := ex.execTime[t.ID]; ok {
		exec = fn()
		if exec > t.WCET {
			exec = t.WCET
		}
		if exec <= 0 {
			exec = time.Nanosecond
		}
	}
	ex.ready = append(ex.ready, &job{task: t, release: ex.eng.Now(), remaining: exec})
	ex.dispatch()
}

// higherPrio reports whether a should run before b.
func higherPrio(a, b *job) bool {
	if a.task.Priority != b.task.Priority {
		return a.task.Priority < b.task.Priority
	}
	return a.release < b.release
}

// dispatch ensures the highest-priority ready/running job is executing.
func (ex *Executor) dispatch() {
	if len(ex.ready) == 0 && ex.running == nil {
		return
	}
	// Pick the best ready job.
	var best *job
	bestIdx := -1
	for i, j := range ex.ready {
		if best == nil || higherPrio(j, best) {
			best, bestIdx = j, i
		}
	}
	if ex.running != nil {
		if best == nil || !higherPrio(best, ex.running) {
			return // current job keeps the CPU
		}
		// Preempt: bank the progress of the running job.
		ran := ex.chunkProgress()
		ex.running.remaining -= ran
		if rs := ex.reserves.Get(ex.running.task.ID, ResourceCPU); rs != nil && ran > 0 {
			rs.TryConsume(ex.eng.Now(), ran.Seconds())
		}
		ex.running.started = true
		ex.stats[ex.running.task.ID].Preemptions++
		if ex.runEv != nil {
			ex.eng.Cancel(ex.runEv)
			ex.runEv = nil
		}
		ex.ready = append(ex.ready, ex.running)
		ex.running = nil
	}
	if best == nil {
		return
	}
	ex.ready = append(ex.ready[:bestIdx], ex.ready[bestIdx+1:]...)
	ex.runJob(best)
}

// chunkProgress returns how long the running job has executed in the
// current chunk.
func (ex *Executor) chunkProgress() time.Duration {
	return ex.eng.Now() - ex.chunkStart
}

// runJob starts (or resumes) a job, honoring any CPU reservation.
func (ex *Executor) runJob(j *job) {
	chunk := j.remaining
	if rs := ex.reserves.Get(j.task.ID, ResourceCPU); rs != nil {
		now := ex.eng.Now()
		remBudget := time.Duration(rs.Remaining(now) * float64(time.Second))
		if remBudget <= 0 {
			// Budget exhausted: suspend until replenishment.
			ex.stats[j.task.ID].Throttled++
			resume := rs.NextReplenish(now)
			ex.eng.At(resume, func() {
				if ex.stopped {
					return
				}
				ex.ready = append(ex.ready, j)
				ex.dispatch()
			})
			ex.dispatch()
			return
		}
		if remBudget < chunk {
			chunk = remBudget
		}
	}
	ex.running = j
	ex.chunkStart = ex.eng.Now()
	ex.runEv = ex.eng.At(ex.chunkStart+chunk, func() { ex.chunkDone(j, chunk) })
}

func (ex *Executor) chunkDone(j *job, chunk time.Duration) {
	if ex.stopped || ex.running != j {
		return
	}
	ex.runEv = nil
	ex.running = nil
	if rs := ex.reserves.Get(j.task.ID, ResourceCPU); rs != nil {
		rs.TryConsume(ex.eng.Now(), chunk.Seconds())
	}
	j.remaining -= chunk
	if j.remaining > 0 {
		// Reservation boundary hit mid-job: requeue (runJob will suspend
		// until replenishment when the budget is empty).
		ex.ready = append(ex.ready, j)
		ex.dispatch()
		return
	}
	st := ex.stats[j.task.ID]
	st.Completed++
	resp := ex.eng.Now() - j.release
	st.TotalResponse += resp
	if resp > st.MaxResponse {
		st.MaxResponse = resp
	}
	if resp > j.task.EffectiveDeadline() {
		st.DeadlineMiss++
	}
	if ex.OnComplete != nil {
		ex.OnComplete(j.task, j.release, ex.eng.Now())
	}
	ex.dispatch()
}
