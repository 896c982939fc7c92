package evm

import (
	"testing"
	"time"
)

// watchdogVC is a cell of gateway 1 and head 7 with a 250 ms task on
// nodes 2 and 3 and a 500 ms task on nodes 4 and 5. Nodes 6 and 7 hold
// no replica and watch at the 250 ms default, so the six runtimes have
// two distinct watchdog periods.
func watchdogVC() VCConfig {
	fast := testVC(4).Tasks[0]
	fast.ID, fast.Candidates = "fast", []NodeID{2, 3}
	slow := fast
	slow.ID, slow.Candidates, slow.Period = "slow", []NodeID{4, 5}, 500*time.Millisecond
	slow.SensorPort, slow.ActuatorPort = 2, 3
	return VCConfig{Name: "watchdogs", Head: 7, Gateway: 1, Tasks: []TaskSpec{fast, slow}}
}

func newWatchdogCell(t *testing.T, ids ...NodeID) *Cell {
	t.Helper()
	cell, err := NewCellWith(CellConfig{Seed: 3}, WithNodes(ids...), WithPER(0))
	if err != nil {
		t.Fatal(err)
	}
	return cell
}

// TestDeployQueuesOneWatchdogPerPeriod pins the grouping: Deploy queues
// the frame loop's start and one watchdog tick per distinct period, not
// one per runtime.
func TestDeployQueuesOneWatchdogPerPeriod(t *testing.T) {
	cell := newWatchdogCell(t, 1, 2, 3, 4, 5, 6, 7)
	eng := cell.Engine()
	before := eng.Pending()
	if err := cell.Deploy(watchdogVC()); err != nil {
		t.Fatal(err)
	}
	if n := len(cell.Nodes()); n != 6 {
		t.Fatalf("deployed %d runtimes, want 6", n)
	}
	const frameStart, periods = 1, 2
	if got := eng.Pending() - before; got != frameStart+periods {
		t.Fatalf("Deploy queued %d events, want %d: the frame start and one watchdog per period",
			got, frameStart+periods)
	}
}

// TestCellStopDrainsWatchdogs checks that after Stop nothing stays
// queued: the watchdog tickers are cancelled, and the stopped frame loop
// and slot events drain within a frame.
func TestCellStopDrainsWatchdogs(t *testing.T) {
	cell := newWatchdogCell(t, 1, 2, 3, 4, 5, 6, 7)
	eng := cell.Engine()
	before := eng.Pending()
	if err := cell.Deploy(watchdogVC()); err != nil {
		t.Fatal(err)
	}
	if _, err := cell.AddNodeRuntime(8, watchdogVC()); err != nil {
		t.Fatal(err)
	}
	cell.Run(3 * time.Second)
	cell.Stop()
	cell.Run(time.Second)
	if got := eng.Pending(); got != before {
		t.Fatalf("%d events queued after Stop, want %d as before Deploy", got, before)
	}
}

// TestFailedDeployQueuesNoWatchdog builds a cell whose second runtime
// cannot admit its tasks: Deploy fails after the first was built and
// leaves nothing queued and no runtime behind.
func TestFailedDeployQueuesNoWatchdog(t *testing.T) {
	cell := newWatchdogCell(t, 1, 2, 3, 4, 5)
	vc := watchdogVC()
	vc.Head = 5
	for i := range vc.Tasks {
		vc.Tasks[i].WCET = 200 * time.Millisecond
	}
	vc.Tasks[1].Period = vc.Tasks[0].Period
	vc.Tasks[1].Candidates = []NodeID{4, 3} // node 3 holds both: 160% of its CPU
	eng := cell.Engine()
	before := eng.Pending()
	if err := cell.Deploy(vc); err == nil {
		t.Fatal("Deploy admitted two 80% tasks on one node")
	}
	if got := eng.Pending(); got != before {
		t.Fatalf("%d events queued after a failed Deploy, want %d", got, before)
	}
	if n := len(cell.Nodes()); n != 0 {
		t.Fatalf("%d runtimes left after a failed Deploy", n)
	}
}

// silentPrimaryReport crashes node 2, the primary of "loop", at crashAt
// and returns when reporter first reported a fault, stepping the cell in
// 10 ms increments until bound past the crash.
func silentPrimaryReport(t *testing.T, cell *Cell, reporter NodeID, crashAt, bound time.Duration) time.Duration {
	t.Helper()
	plan := FaultPlan{Name: "crash", Steps: []FaultStep{{At: crashAt, CrashNode: 2}}}
	if err := cell.ApplyFaultPlan(plan); err != nil {
		t.Fatal(err)
	}
	cell.Run(crashAt - cell.Now())
	node := cell.Node(reporter)
	if n := node.Stats().FaultsReported; n != 0 {
		t.Fatalf("node %v reported %d faults before the crash", reporter, n)
	}
	for cell.Now() <= crashAt+bound {
		if node.Stats().FaultsReported > 0 {
			return cell.Now()
		}
		cell.Run(10 * time.Millisecond)
	}
	t.Fatalf("node %v reported no fault within %v of the crash at %v", reporter, bound, crashAt)
	return 0
}

// TestAddedNodeReportsSilentPrimary checks the group of one that
// AddNodeRuntime starts: the runtime admitted later is the task's only
// backup, and it reports the crashed primary. Its controller state
// differs from the primary's, so the deviation check is kept out of the
// way: only the watchdog can report.
func TestAddedNodeReportsSilentPrimary(t *testing.T) {
	cell := newWatchdogCell(t, 1, 2, 3, 4)
	vc := testVC(1 << 20)
	vc.Tasks[0].Candidates = []NodeID{2, 5}
	if err := cell.Deploy(vc); err != nil {
		t.Fatal(err)
	}
	startFeed(t, cell)
	cell.Run(2 * time.Second)
	if _, err := cell.AddNodeRuntime(5, vc); err != nil {
		t.Fatal(err)
	}
	silentPrimaryReport(t, cell, 5, 6*time.Second, 10*time.Second)
}

// TestGroupedBackupReportsWithinSilenceWindow checks the detection bound
// in a grouped cell: the backup reports a crashed primary within
// SilenceWindow periods of silence plus one period of ticker phase.
func TestGroupedBackupReportsWithinSilenceWindow(t *testing.T) {
	cell := newWatchdogCell(t, 1, 2, 3, 4, 5, 6)
	vc := testVC(4)
	vc.Head = 6
	if err := cell.Deploy(vc); err != nil {
		t.Fatal(err)
	}
	startFeed(t, cell)
	spec := vc.Tasks[0]
	const crashAt = 5*time.Second + 110*time.Millisecond
	bound := time.Duration(spec.SilenceWindow)*spec.Period + spec.Period
	at := silentPrimaryReport(t, cell, 3, crashAt, bound)
	if at <= crashAt {
		t.Fatalf("backup reported at %v, not after the crash at %v", at, crashAt)
	}
}
