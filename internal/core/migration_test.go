package core

import (
	"bytes"
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"evm/internal/radio"
	"evm/internal/rtlink"
	"evm/internal/vm"
	"evm/internal/wire"
)

// TestImportTaskAndAdoptState covers the out-of-band transfer path the
// federation layer uses: what ImportTask refuses, leaving the node with
// the replicas and admitted tasks it had, and what it restores, into a
// new replica or into one the node holds (adoption: the held replica
// keeps its role). Each case runs on a fresh rig after the primary
// exported its replica twice, 3 s apart (old and cur).
func TestImportTaskAndAdoptState(t *testing.T) {
	capsule := proportionalCapsule(t)
	flipped, err := capsule.Encode()
	if err != nil {
		t.Fatal(err)
	}
	flipped[len(flipped)-9] ^= 1 // last code byte, just before the checksum
	hog := testSpec()
	hog.ID, hog.WCET = "hog", hog.Period

	cases := []struct {
		name string
		node radio.NodeID
		// apply transfers an export into n and returns the export it used.
		apply   func(n *Node, old, cur wire.TaskExport) (wire.TaskExport, error)
		wantErr string // refusals: a fragment of the error
		role    wire.Role
		master  radio.NodeID // the replica's activeNode after the transfer
	}{
		{
			name: "export names another task", node: spareID, wantErr: "export names task",
			apply: func(n *Node, _, cur wire.TaskExport) (wire.TaskExport, error) {
				cur.TaskID = "other"
				return cur, n.ImportTask(testSpec(), cur, true)
			},
		},
		{
			name: "a held replica takes the state and keeps its role", node: ctrlB, role: wire.RoleBackup, master: ctrlA,
			apply: func(n *Node, _, cur wire.TaskExport) (wire.TaskExport, error) {
				return cur, n.ImportTask(testSpec(), cur, true)
			},
		},
		{
			name: "capsule fails attestation", node: spareID, wantErr: "attestation",
			apply: func(n *Node, _, cur wire.TaskExport) (wire.TaskExport, error) {
				cur.Capsule = flipped
				return cur, n.ImportTask(testSpec(), cur, true)
			},
		},
		{
			name: "node cannot schedule", node: ctrlA, wantErr: "cannot schedule",
			apply: func(n *Node, _, _ wire.TaskExport) (wire.TaskExport, error) {
				ex := wire.TaskExport{TaskID: "hog"}
				return ex, n.ImportTask(hog, ex, true)
			},
		},
		{
			name: "state fails restore", node: spareID, wantErr: "restore lts",
			apply: func(n *Node, _, cur wire.TaskExport) (wire.TaskExport, error) {
				cur.Blob = cur.Blob[:3]
				return cur, n.ImportTask(testSpec(), cur, true)
			},
		},
		{
			name: "import after a refused restore", node: spareID, role: wire.RoleActive, master: spareID,
			apply: func(n *Node, _, cur wire.TaskExport) (wire.TaskExport, error) {
				bad := cur
				bad.Blob = cur.Blob[:3]
				if err := n.ImportTask(testSpec(), bad, true); err == nil {
					return bad, errors.New("a 3-byte state was imported")
				}
				return cur, n.ImportTask(testSpec(), cur, true)
			},
		},
		{
			name: "import activates", node: spareID, role: wire.RoleActive, master: spareID,
			apply: func(n *Node, _, cur wire.TaskExport) (wire.TaskExport, error) {
				return cur, n.ImportTask(testSpec(), cur, true)
			},
		},
		{
			name: "adopt overwrites a replica", node: ctrlB, role: wire.RoleBackup, master: ctrlA,
			apply: func(n *Node, old, _ wire.TaskExport) (wire.TaskExport, error) {
				return old, n.ImportTask(testSpec(), old, false)
			},
		},
		{
			name: "adopt without a replica imports a backup", node: spareID, role: wire.RoleBackup, master: ctrlA,
			apply: func(n *Node, _, cur wire.TaskExport) (wire.TaskExport, error) {
				return cur, n.ImportTask(testSpec(), cur, false)
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := newRig(t, defaultCfg())
			var old, cur wire.TaskExport
			r.run(t, 3*time.Second)
			if err := r.nodes[ctrlA].ExportTask("lts", &old); err != nil {
				t.Fatal(err)
			}
			r.run(t, 3*time.Second)
			if err := r.nodes[ctrlA].ExportTask("lts", &cur); err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(old.Blob, cur.Blob) || old.Seq == cur.Seq {
				t.Fatal("premise: the two exports are equal")
			}
			n := r.nodes[c.node]
			replicas, in, taskset := n.ReplicaCount(), n.Stats().MigrationsIn, slices.Clone(n.taskset)
			ex, err := c.apply(n, old, cur)
			if c.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), c.wantErr) {
					t.Fatalf("err = %v, want one naming %q", err, c.wantErr)
				}
				if n.ReplicaCount() != replicas || n.Stats().MigrationsIn != in || !slices.Equal(n.taskset, taskset) {
					t.Fatal("a refused transfer changed the node")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got := n.Stats().MigrationsIn; got != in+1 {
				t.Fatalf("MigrationsIn %d -> %d, want +1", in, got)
			}
			rep := n.replica(ex.TaskID)
			if rep == nil || rep.role != c.role || rep.activeNode != c.master {
				t.Fatalf("replica %+v, want role %v with master %v", rep, c.role, c.master)
			}
			var back wire.TaskExport
			if err := n.ExportTask(ex.TaskID, &back); err != nil {
				t.Fatal(err)
			}
			if back.Seq != ex.Seq || !bytes.Equal(back.Blob, ex.Blob) {
				t.Fatalf("restored seq %d state %x, want %d %x", back.Seq, back.Blob, ex.Seq, ex.Blob)
			}
		})
	}
}

// TestRefusedStateLeavesNoReplica sends a migrated state that fails
// Restore to a node without the task: the node must stay as it was, with
// no replica and no admission slot, and a good state afterwards installs.
func TestRefusedStateLeavesNoReplica(t *testing.T) {
	r := newRig(t, defaultCfg())
	r.run(t, 3*time.Second)
	var ex wire.TaskExport
	if err := r.nodes[ctrlA].ExportTask("lts", &ex); err != nil {
		t.Fatal(err)
	}
	spare := r.nodes[spareID]
	send := func(blob []byte) {
		payload, err := wire.StateXfer{TaskID: "lts", Seq: ex.Seq, Blob: blob}.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if err := r.nodes[ctrlA].Link().Send(rtlink.Message{Dst: spareID, Kind: wire.KindState, Payload: payload}); err != nil {
			t.Fatal(err)
		}
		r.run(t, time.Second)
	}
	send(ex.Blob[:3])
	if n, slots := spare.ReplicaCount(), len(spare.taskset); n != 0 || slots != 0 || spare.Stats().MigrationsIn != 0 {
		t.Fatalf("refused state left %d replicas and %d admitted tasks", n, slots)
	}
	send(ex.Blob)
	if !spare.HasReplica("lts") || len(spare.taskset) != 1 || spare.Stats().MigrationsIn != 1 {
		t.Fatal("a good state after a refused one was not installed")
	}
}

// vmInterp returns the interpreter of node id's lts replica.
func (r *rig) vmInterp(t *testing.T, id radio.NodeID) *vm.Interp {
	t.Helper()
	rep := r.nodes[id].replica("lts")
	if rep == nil {
		t.Fatalf("node %v holds no lts replica", id)
	}
	return rep.logic.(*VMLogic).interp
}

// freshVMStateBytes caps the snapshot of a VM task whose memory was
// never written: header, two stacks and an empty memory section. It
// measures 21 B; it was 2,069 B while the state carried all 256 memory
// words.
const freshVMStateBytes = 32

func TestFreshVMStateSizeBudget(t *testing.T) {
	l, err := NewVMLogic(proportionalCapsule(t))
	if err != nil {
		t.Fatal(err)
	}
	for step := range 3 {
		blob, err := l.AppendSnapshot(nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("after %d steps: %d B (budget %d)", step, len(blob), freshVMStateBytes)
		if len(blob) > freshVMStateBytes {
			t.Fatalf("a never-written VM state encodes in %d B, budget %d", len(blob), freshVMStateBytes)
		}
		if _, err := l.Step(45, 0.25); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFreshVMStateMigratesInOneFragment: a VM task's migration state
// crosses RT-Link in one fragment. Two rigs run alike to 3 s; then one
// migrates lts to the spare and the other sends the spare only the
// capsule that MigrateTask sends first, so the difference in the
// fragments each queues on the source link is the KindState message's.
// It was 22 at MaxPayload 96 while the state carried all 256 memory
// words. The link drops nothing, so each queued fragment is sent.
func TestFreshVMStateMigratesInOneFragment(t *testing.T) {
	queued := func(migrate bool) int {
		r := vmRig(t)
		r.run(t, 3*time.Second)
		src := r.nodes[ctrlA]
		q0 := src.Link().QueueLen()
		if migrate {
			if err := src.MigrateTask("lts", spareID); err != nil {
				t.Fatal(err)
			}
		} else {
			capsule := src.replica("lts").logic.(*VMLogic).code.Encoded
			if err := src.Link().Send(rtlink.Message{Dst: spareID, Kind: wire.KindCapsule, Payload: capsule}); err != nil {
				t.Fatal(err)
			}
		}
		n := src.Link().QueueLen() - q0
		r.run(t, 3*time.Second)
		want := 0
		if migrate {
			want = 1
		}
		if got := r.nodes[spareID].Stats().MigrationsIn; got != want {
			t.Fatalf("migrate %v: the spare took %d migrations, want %d", migrate, got, want)
		}
		return n
	}
	if d := queued(true) - queued(false); d != 1 {
		t.Fatalf("the state of a fresh VM task took %d fragments, want 1", d)
	}
}

// TestVMStateWithInteriorZerosRoundTrips: a VM task whose memory holds
// only word 200 (zeros before it, zeros after it) arrives with exactly
// that memory, through MigrateTask over RT-Link and through
// ExportTask/ImportTask.
func TestVMStateWithInteriorZerosRoundTrips(t *testing.T) {
	const addr, val = 200, -123456789
	check := func(t *testing.T, r *rig, want []byte) {
		t.Helper()
		in := r.vmInterp(t, spareID)
		for a := range vm.DefaultMemWords {
			v, err := in.Mem(a)
			if err != nil {
				t.Fatal(err)
			}
			want := int64(0)
			if a == addr {
				want = val
			}
			if v != want {
				t.Fatalf("spare's mem[%d] = %d after the transfer, want %d", a, v, want)
			}
		}
		var back wire.TaskExport
		if err := r.nodes[spareID].ExportTask("lts", &back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back.Blob, want) {
			t.Fatalf("spare's state %x, want %x", back.Blob, want)
		}
	}
	setUp := func(t *testing.T) (*rig, wire.TaskExport) {
		r := vmRig(t)
		r.run(t, 3*time.Second)
		if err := r.vmInterp(t, ctrlA).SetMem(addr, val); err != nil {
			t.Fatal(err)
		}
		var ex wire.TaskExport
		if err := r.nodes[ctrlA].ExportTask("lts", &ex); err != nil {
			t.Fatal(err)
		}
		// 21 B of header and empty stacks, then the memory section.
		if words := (len(ex.Blob) - 21) / 8; words != addr+1 {
			t.Fatalf("premise: the state carries %d memory words, want %d", words, addr+1)
		}
		return r, ex
	}
	t.Run("MigrateTask", func(t *testing.T) {
		r, ex := setUp(t)
		if err := r.nodes[ctrlA].MigrateTask("lts", spareID); err != nil {
			t.Fatal(err)
		}
		r.run(t, 3*time.Second)
		if r.nodes[spareID].Stats().MigrationsIn != 1 {
			t.Fatal("the migration did not complete")
		}
		check(t, r, ex.Blob)
	})
	t.Run("ExportImport", func(t *testing.T) {
		r, ex := setUp(t)
		if err := r.nodes[spareID].ImportTask(r.cfg.Tasks[0], ex, false); err != nil {
			t.Fatal(err)
		}
		check(t, r, ex.Blob)
	})
}
