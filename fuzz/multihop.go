package fuzz

// ScenarioRandomFieldMultihop names the pinned random multi-hop field:
// a generated single-cell spec whose stations are scattered by a random
// walk wider than radio range, so the TDMA line schedule must relay
// every sensor snapshot and actuation hop by hop — the generated,
// seed-pinned form of the pipeline scenario. The
// far-end primary crashes mid-run and the one-hop-closer backup takes
// over across the surviving relays.
const ScenarioRandomFieldMultihop = "random-field-multihop"

// RandomFieldSeed is the generator seed behind the pinned scenario.
// Changing it changes the pinned topology — tests pin the derived
// spec's shape, so treat it like a wire constant.
const RandomFieldSeed uint64 = 6

// RandomFieldSpec returns the pinned scenario's generating spec: six
// stations (gateway, two relay spares, head, backup, primary) on a
// random-walk line spanning well past the 30 m radio range, with the
// far-end primary crashing at ~10.5 s. Run it through
// evm.Runner{Build: Builder(RandomFieldSpec())}.
func RandomFieldSpec() Spec {
	s := GenerateWith(RandomFieldSeed, MultihopProfile())
	s.Name = ScenarioRandomFieldMultihop
	return s
}
