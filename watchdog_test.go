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

// TestDeployQueuesOneWatchdogPerPeriod pins the grouping: a cell's
// construction queues the frame loop's start and one watchdog tick per
// distinct period, not one per runtime.
func TestDeployQueuesOneWatchdogPerPeriod(t *testing.T) {
	cell := newTestCell(t, CellSpec{Seed: 3, Nodes: Members(7), VC: watchdogVC()})
	if n := len(cell.Nodes()); n != 6 {
		t.Fatalf("deployed %d runtimes, want 6", n)
	}
	const frameStart, periods = 1, 2
	if got := cell.Engine().Pending(); got != frameStart+periods {
		t.Fatalf("construction queued %d events, want %d: the frame start and one watchdog per period",
			got, frameStart+periods)
	}
}

// TestCellStopDrainsWatchdogs checks that after Stop nothing stays
// queued: the feed and the watchdog tickers are cancelled, and the
// stopped frame loop and slot events drain within a frame.
func TestCellStopDrainsWatchdogs(t *testing.T) {
	cell := newTestCell(t, CellSpec{Seed: 3, Nodes: Members(7), VC: watchdogVC(), Feed: testFeed()})
	if _, err := cell.AddNodeRuntime(8); err != nil {
		t.Fatal(err)
	}
	cell.Run(3 * time.Second)
	cell.Stop()
	cell.Run(time.Second)
	if got := cell.Engine().Pending(); got != 0 {
		t.Fatalf("%d events queued after Stop, want none", got)
	}
}

// TestFailedDeployQueuesNoWatchdog builds a cell whose second runtime
// cannot admit its tasks: construction fails after the first was built
// and leaves nothing queued and no runtime behind (buildFails).
func TestFailedDeployQueuesNoWatchdog(t *testing.T) {
	vc := watchdogVC()
	vc.Head = 5
	for i := range vc.Tasks {
		vc.Tasks[i].WCET = 200 * time.Millisecond
	}
	vc.Tasks[1].Period = vc.Tasks[0].Period
	vc.Tasks[1].Candidates = []NodeID{4, 3} // node 3 holds both: 160% of its CPU
	buildFails(t, CellSpec{Seed: 3, Nodes: Members(5), VC: vc})
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
// backup, and it reports the crashed primary. It joined cold, so it does
// not judge the primary's outputs, but it still watches for silence.
func TestAddedNodeReportsSilentPrimary(t *testing.T) {
	vc := testVC(4)
	vc.Tasks[0].Candidates = []NodeID{2, 5}
	cell := newTestCell(t, CellSpec{Seed: 3, Nodes: Members(4), VC: vc, Feed: testFeed()})
	cell.Run(2 * time.Second)
	if _, err := cell.AddNodeRuntime(5); err != nil {
		t.Fatal(err)
	}
	silentPrimaryReport(t, cell, 5, 6*time.Second, 10*time.Second)
}

// TestColdJoinerDoesNotJudge admits a backup into a running component
// with no fault injected. The new replica's controller never saw the
// plant, so its outputs differ from the warm primary's; it must not
// report the healthy primary as deviating.
func TestColdJoinerDoesNotJudge(t *testing.T) {
	vc := testVC(4)
	vc.Tasks[0].Candidates = []NodeID{2, 5}
	cell := newTestCell(t, CellSpec{Seed: 3, Nodes: Members(4), VC: vc, Feed: testFeed()})
	log := cell.Events().Log()
	cell.Run(2 * time.Second)
	if _, err := cell.AddNodeRuntime(5); err != nil {
		t.Fatal(err)
	}
	cell.Run(10 * time.Second)
	for _, ev := range log.Events() {
		if fo, ok := ev.(FailoverEvent); ok {
			t.Fatalf("fail-over with no fault: %v", fo)
		}
	}
}

// TestGroupedBackupReportsWithinSilenceWindow checks the detection bound
// in a grouped cell: the backup reports a crashed primary within
// SilenceWindow periods of silence plus one period of ticker phase.
func TestGroupedBackupReportsWithinSilenceWindow(t *testing.T) {
	vc := testVC(4)
	vc.Head = 6
	cell := newTestCell(t, CellSpec{Seed: 3, Nodes: Members(6), VC: vc, Feed: testFeed()})
	spec := vc.Tasks[0]
	const crashAt = 5*time.Second + 110*time.Millisecond
	bound := time.Duration(spec.SilenceWindow)*spec.Period + spec.Period
	at := silentPrimaryReport(t, cell, 3, crashAt, bound)
	if at <= crashAt {
		t.Fatalf("backup reported at %v, not after the crash at %v", at, crashAt)
	}
}
