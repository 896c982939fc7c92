package eventorder

// GoodPublishAfter releases the lock before delivering.
func (b *Bus) GoodPublishAfter(ev Event) {
	b.mu.Lock()
	b.subs = b.subs[:len(b.subs):len(b.subs)]
	b.mu.Unlock()
	b.Publish(ev)
}

// GoodRecordThenPublish collects inside the callback and publishes
// after delivery returns — the fix the diagnostic suggests.
func GoodRecordThenPublish(from, to *Bus) {
	var pending []Event
	from.Subscribe(func(ev Event) {
		pending = append(pending, ev)
	})
	for _, ev := range pending {
		to.Publish(ev)
	}
}

// GoodCopyEvent keeps copies only: the struct behind the pointer, its
// fields, and values computed from the event. Locals that alias the
// event die with the call.
func GoodCopyEvent(b *KindBus) (*[]Actuation, map[string]int) {
	acts := new([]Actuation)
	last := make(map[string]int)
	b.Subscribe(func(ev Kind) {
		alias := ev
		if act, ok := alias.(*Actuation); ok {
			*acts = append(*acts, *act)
			last[act.Task] = act.At
		}
		if w, ok := ev.(Wrapped); ok {
			inner := w.Inner
			last[w.Cell] = inner.When()
		}
	})
	return acts, last
}
