// Package eventorder is the seeded-bad / known-good fixture for the
// eventorder analyzer.
package eventorder

import "sync"

// Event is the fixture payload.
type Event struct{ Name string }

// Bus is a minimal synchronous event bus with the shape the analyzer
// recognizes (a named type ending in "Bus" with Publish/Subscribe).
type Bus struct {
	mu   sync.Mutex
	subs []func(Event)
}

// Subscribe registers a handler; handlers run synchronously inside
// Publish, in subscription order.
func (b *Bus) Subscribe(fn func(Event)) {
	b.subs = append(b.subs, fn)
}

// Publish delivers ev to every subscriber before returning.
func (b *Bus) Publish(ev Event) {
	for _, fn := range b.subs {
		fn(ev)
	}
}

// Kind is an event interface shaped like evm.Event: *Actuation
// implements it and is valid only while it is being delivered.
type Kind interface{ When() int }

// Actuation is a borrowed kind: a publisher rewrites one Actuation for
// every event and publishes its address.
type Actuation struct {
	At   int
	Task string
}

// When implements Kind.
func (a *Actuation) When() int { return a.At }

// Wrapped attributes another kind to a cell, like evm.CellEvent.
type Wrapped struct {
	Cell  string
	Inner Kind
}

// When implements Kind.
func (w Wrapped) When() int { return w.Inner.When() }

// KindBus delivers Kind events, synchronously and in subscription order.
type KindBus struct{ subs []func(Kind) }

// Subscribe registers a handler.
func (b *KindBus) Subscribe(fn func(Kind)) { b.subs = append(b.subs, fn) }

// Publish delivers ev to every subscriber before returning.
func (b *KindBus) Publish(ev Kind) {
	for _, fn := range b.subs {
		fn(ev)
	}
}
