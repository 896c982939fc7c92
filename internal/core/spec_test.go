package core

import (
	"testing"

	"evm/internal/radio"
)

func TestVCConfigValidation(t *testing.T) {
	cfg := defaultCfg()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := defaultCfg()
	bad.Tasks[0].Candidates = []radio.NodeID{gwID}
	if err := bad.Validate(); err == nil {
		t.Fatal("controller on gateway accepted")
	}
	bad = defaultCfg()
	bad.Tasks = append(bad.Tasks, bad.Tasks[0])
	if err := bad.Validate(); err == nil {
		t.Fatal("duplicate task accepted")
	}
	bad = defaultCfg()
	bad.Tasks[0].DeviationWindow = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero deviation window accepted")
	}
	bad = defaultCfg()
	bad.Tasks[0].MakeLogic = nil
	if err := bad.Validate(); err == nil {
		t.Fatal("missing logic factory accepted")
	}
}

func TestInitialRoles(t *testing.T) {
	cfg := defaultCfg()
	if ro := cfg.InitialRole("lts", ctrlA); !ro.Holds || !ro.Active {
		t.Fatalf("ctrlA role = %+v", ro)
	}
	if ro := cfg.InitialRole("lts", ctrlB); !ro.Holds || ro.Active {
		t.Fatalf("ctrlB role = %+v", ro)
	}
	if ro := cfg.InitialRole("lts", spareID); ro.Holds {
		t.Fatalf("spare role = %+v", ro)
	}
	if ro := cfg.InitialRole("nope", ctrlA); ro.Holds {
		t.Fatalf("unknown task role = %+v", ro)
	}
}
