package sim

// TraceDispatch installs fn to see every dispatched event's time, schedule
// sequence and the id of the process it resumes (0 for a callback, delivery
// or timeout); nil removes it. External tests use it to pin the event order
// of workloads built above the kernel.
func TraceDispatch(fn func(at Time, seq, proc uint64)) {
	if fn == nil {
		dispatchHook = nil
		return
	}
	dispatchHook = func(ev *event, p *Proc) {
		var id uint64
		if p != nil {
			id = p.id
		}
		fn(ev.at, ev.seq, id)
	}
}
