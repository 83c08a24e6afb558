package core

// arrivalSource is what sets the engine's serving entry points apart:
// where requests come from, which clock stamps them, and where finished
// requests go. RunOnline (and Run, its all-at-t0 special case) uses the
// trace source of online.go; Serve uses the live source of serve.go.
// Everything else — iteration-level admission, stepping, retirement —
// is the one loop in schedule.
type arrivalSource interface {
	// admit moves arrived requests into free slots (up to
	// Config.MaxBatch) and returns the grown batch. Given an empty batch
	// it waits for the next arrival: the trace source jumps its simulated
	// clock, the live source blocks on the Submit queue. It returns an
	// empty batch only when no request can arrive any more.
	admit(active []*reqState) []*reqState
	// prune retires requests that must not be stepped this iteration and
	// returns the rest (the live source's cancel, deadline and drain
	// timeout sweep).
	prune(active []*reqState) []*reqState
	// backlog is the number of arrived requests still waiting for a slot:
	// the speculation policy's queue-depth signal.
	backlog() int
	// stepped accounts one iteration.
	stepped(rec IterationRecord)
	// retire delivers a finished request and releases its sessions.
	retire(st *reqState)
	// settle runs at the end of every pass with the surviving batch.
	settle(active []*reqState)
}

// schedule is the engine's request manager (§5): Orca-style
// iteration-level scheduling, where requests join as soon as a
// continuous-batching slot frees up and leave as soon as they finish,
// without waiting for the rest of the batch. It is the only caller of
// runIteration, and it returns once the source admits nothing more.
func (e *Engine) schedule(src arrivalSource) {
	var active []*reqState
	for {
		active = src.admit(active)
		if len(active) == 0 {
			return
		}
		active = src.prune(active)
		if len(active) > 0 {
			rec := e.runIteration(active, src.backlog())
			src.stepped(rec)
			still := active[:0]
			for _, st := range active {
				if st.done {
					src.retire(st)
				} else {
					still = append(still, st)
				}
			}
			clear(active[len(still):]) // drop retired states for the GC
			active = still
		}
		src.settle(active)
	}
}
