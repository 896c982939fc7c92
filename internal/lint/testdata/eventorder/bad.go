package eventorder

// BadPublishLocked publishes while the mutex is held, handing every
// subscriber arbitrary code under the lock.
func (b *Bus) BadPublishLocked(ev Event) {
	b.mu.Lock()
	b.Publish(ev) // want `publish while holding a mutex`
	b.mu.Unlock()
}

// BadDeferredUnlock holds the lock for the whole function body, so the
// publish still runs under it.
func (b *Bus) BadDeferredUnlock(ev Event) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.Publish(ev) // want `publish while holding a mutex`
}

// BadBridge republishes from inside a subscriber callback, nesting one
// event's delivery inside another's.
func BadBridge(from, to *Bus) {
	from.Subscribe(func(ev Event) {
		to.Publish(ev) // want `publish from inside a subscriber callback`
	})
}

// BadKeepEvent appends the borrowed event itself.
func BadKeepEvent(b *KindBus) *[]Kind {
	kept := new([]Kind)
	b.Subscribe(func(ev Kind) {
		*kept = append(*kept, ev) // want `keeps its borrowed event`
	})
	return kept
}

// BadKeepAsserted keeps the pointer asserted from the event.
func BadKeepAsserted(b *KindBus) **Actuation {
	var last *Actuation
	b.Subscribe(func(ev Kind) {
		if act, ok := ev.(*Actuation); ok {
			last = act // want `keeps its borrowed event`
		}
	})
	return &last
}

// recorder keeps what its subscriber sees.
type recorder struct {
	acts  []*Actuation
	inner Kind
	ch    chan Kind
}

// BadKeepSwitched keeps type-switch bindings in fields, sends a
// wrapped event and keeps a wrapper built from the event.
func (r *recorder) BadKeepSwitched(b *KindBus, out []Wrapped) {
	b.Subscribe(func(ev Kind) {
		switch e := ev.(type) {
		case *Actuation:
			r.acts = append(r.acts, e) // want `keeps its borrowed event`
		case Wrapped:
			r.inner = e.Inner // want `keeps its borrowed event`
			r.ch <- e         // want `keeps its borrowed event`
		}
		out[0] = Wrapped{Cell: "east", Inner: ev} // want `keeps its borrowed event`
	})
}

// BadKeepAlias keeps a local alias of the event in an outer map.
func BadKeepAlias(b *KindBus, byTask map[string]Kind) {
	b.Subscribe(func(ev Kind) {
		alias := ev
		byTask["last"] = alias // want `keeps its borrowed event`
	})
}
