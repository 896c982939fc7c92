package mac

import (
	"testing"
	"time"
)

func workload(rate float64) Params {
	p := DefaultParams()
	p.EventRateHz = rate
	return p
}

func TestRTLinkLifetimeAt5PercentNear1_8Years(t *testing.T) {
	// Paper §2.1: effective battery lifetime of 1.8 years with a 5% duty
	// cycle under RT-Link. We accept the right ballpark, 1-3 years (the
	// model gives 2.64).
	cfg, err := RTLinkForDutyCycle(0.05)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RTLink(workload(0.1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	years := res.Lifetime.Hours() / (24 * 365)
	if years < 1.0 || years > 3.0 {
		t.Fatalf("RT-Link lifetime at 5%% duty = %.2f years, want ~1.8", years)
	}
}

func TestRTLinkBeatsBMACAndSMACAcrossDutyCycles(t *testing.T) {
	// Paper §2.1: RT-Link outperforms B-MAC and S-MAC across all duty
	// cycles.
	p := workload(0.1)
	for _, d := range []float64{0.02, 0.05, 0.10, 0.25, 0.50} {
		rtCfg, err := RTLinkForDutyCycle(d)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := RTLink(p, rtCfg)
		if err != nil {
			t.Fatal(err)
		}
		bCfg, err := BMACForDutyCycle(d)
		if err != nil {
			t.Fatal(err)
		}
		bm, err := BMAC(p, bCfg)
		if err != nil {
			t.Fatal(err)
		}
		sCfg, err := SMACForDutyCycle(d)
		if err != nil {
			t.Fatal(err)
		}
		sm, err := SMAC(p, sCfg)
		if err != nil {
			t.Fatal(err)
		}
		if rt.Lifetime <= bm.Lifetime {
			t.Errorf("duty %.2f: RT-Link %.2fy <= B-MAC %.2fy", d,
				rt.Lifetime.Hours()/8760, bm.Lifetime.Hours()/8760)
		}
		if rt.Lifetime <= sm.Lifetime {
			t.Errorf("duty %.2f: RT-Link %.2fy <= S-MAC %.2fy", d,
				rt.Lifetime.Hours()/8760, sm.Lifetime.Hours()/8760)
		}
	}
}

func TestRTLinkBeatsBaselinesAcrossEventRates(t *testing.T) {
	for _, rate := range []float64{0.01, 0.1, 0.5, 1.0} {
		p := workload(rate)
		rtCfg, _ := RTLinkForDutyCycle(0.1)
		bCfg, _ := BMACForDutyCycle(0.1)
		sCfg, _ := SMACForDutyCycle(0.1)
		rt, err := RTLink(p, rtCfg)
		if err != nil {
			t.Fatal(err)
		}
		bm, err := BMAC(p, bCfg)
		if err != nil {
			t.Fatal(err)
		}
		sm, err := SMAC(p, sCfg)
		if err != nil {
			t.Fatal(err)
		}
		if rt.AvgCurrentMA >= bm.AvgCurrentMA || rt.AvgCurrentMA >= sm.AvgCurrentMA {
			t.Errorf("rate %.2f: RT-Link current %.3f not lowest (B-MAC %.3f, S-MAC %.3f)",
				rate, rt.AvgCurrentMA, bm.AvgCurrentMA, sm.AvgCurrentMA)
		}
	}
}

func TestBMACEnergyGrowsWithEventRate(t *testing.T) {
	cfg := DefaultBMACConfig()
	lo, err := BMAC(workload(0.01), cfg)
	if err != nil {
		t.Fatal(err)
	}
	hi, err := BMAC(workload(1.0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if hi.AvgCurrentMA <= lo.AvgCurrentMA {
		t.Fatal("B-MAC current did not grow with event rate")
	}
	// B-MAC's per-message preamble cost makes it very rate-sensitive:
	// two orders of magnitude rate increase must cost at least 5x.
	if hi.AvgCurrentMA < 5*lo.AvgCurrentMA {
		t.Fatalf("B-MAC rate sensitivity too low: %.4f -> %.4f", lo.AvgCurrentMA, hi.AvgCurrentMA)
	}
}

func TestBMACLatencyHalfCheckInterval(t *testing.T) {
	cfg := DefaultBMACConfig()
	res, err := BMAC(workload(0.1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgLatency < cfg.CheckInterval/2 || res.AvgLatency > cfg.CheckInterval {
		t.Fatalf("B-MAC latency %v not ~ half the 100ms check interval", res.AvgLatency)
	}
}

func TestSMACIdleListeningDominatesAtLowRate(t *testing.T) {
	// At near-zero traffic S-MAC still pays its listen window, so current
	// should be roughly ListenFraction * RX current.
	cfg := DefaultSMACConfig()
	res, err := SMAC(workload(0.001), cfg)
	if err != nil {
		t.Fatal(err)
	}
	approx := cfg.ListenFraction * DefaultParams().Model.RXCurrentMA
	if res.AvgCurrentMA < approx*0.8 || res.AvgCurrentMA > approx*1.5 {
		t.Fatalf("S-MAC idle current %.3f, want ~%.3f", res.AvgCurrentMA, approx)
	}
}

func TestSaturationDetected(t *testing.T) {
	if _, err := BMAC(workload(50), DefaultBMACConfig()); err == nil {
		t.Fatal("saturated B-MAC accepted")
	}
	cfg := DefaultRTLinkConfig()
	cfg.ActiveFrameEvery = 100
	if _, err := RTLink(workload(10), cfg); err == nil {
		t.Fatal("saturated RT-Link accepted")
	}
}

func TestLowerDutyCycleExtendsLifetime(t *testing.T) {
	p := workload(0.05)
	var prev time.Duration
	for _, d := range []float64{0.1, 0.05, 0.02, 0.01} {
		cfg, err := RTLinkForDutyCycle(d)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RTLink(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if prev != 0 && res.Lifetime <= prev {
			t.Fatalf("lifetime did not grow as duty cycle fell (%.3f)", d)
		}
		prev = res.Lifetime
	}
}

func TestRTLinkLatencyTracksFrameSkip(t *testing.T) {
	p := workload(0.01)
	cfg := DefaultRTLinkConfig()
	r1, err := RTLink(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ActiveFrameEvery = 4
	r4, err := RTLink(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r4.AvgLatency != 4*r1.AvgLatency {
		t.Fatalf("latency %v -> %v, want 4x", r1.AvgLatency, r4.AvgLatency)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := BMACForDutyCycle(0); err == nil {
		t.Fatal("zero duty accepted")
	}
	if _, err := SMACForDutyCycle(1.5); err == nil {
		t.Fatal("duty > 1 accepted")
	}
	if _, err := RTLinkForDutyCycle(-1); err == nil {
		t.Fatal("negative duty accepted")
	}
	bad := DefaultParams()
	bad.PayloadBytes = 0
	if _, err := BMAC(bad, DefaultBMACConfig()); err == nil {
		t.Fatal("bad params accepted")
	}
}
