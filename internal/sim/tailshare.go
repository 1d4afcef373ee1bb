package sim

// ShareTails rewires an ascending-time sequence of checkpoints taken on
// one run so that adjacent snapshots share the storage of their common
// future-event suffix. At any checkpoint the bulk of the queued events is
// the not-yet-consumed pre-scheduled stimulus and clock schedule, and
// each later checkpoint's queue is (up to its own in-flight transitions)
// a suffix of the previous one's — so without sharing, golden-run
// checkpoint memory is (number of checkpoints) x (schedule length) and
// scales inversely with the checkpoint pitch. After sharing, each
// checkpoint owns only the events unique to it and aliases the shared
// suffix copy-on-write into its predecessor, so total memory is one full
// schedule plus small per-checkpoint deltas, independent of pitch.
//
// Checkpoints are immutable after creation and Restore copies rather than
// aliases, so shared tails remain safe for concurrent restores. Pairs of
// mismatched kinds are skipped; sharing never changes restore semantics,
// only storage. The shareable region of the predecessor must be one
// contiguous slice: its own (already shared) tail when it has one,
// otherwise its full queue.
func ShareTails(cks []*Checkpoint) {
	for i := 1; i < len(cks); i++ {
		prev, cur := cks[i-1], cks[i]
		if prev == nil || cur == nil || prev.Kind != cur.Kind {
			continue
		}
		avail := prev.queue
		if len(prev.tail) > 0 {
			avail = prev.tail
		}
		n := 0
		for n < len(avail) && n < len(cur.queue) &&
			avail[len(avail)-1-n] == cur.queue[len(cur.queue)-1-n] {
			n++
		}
		if n == 0 {
			continue
		}
		cur.tail = avail[len(avail)-n:]
		// Reallocate the head so the original full-length backing array is
		// released; this copy is the whole point of the split.
		cur.queue = append([]queued(nil), cur.queue[:len(cur.queue)-n]...)
	}
}
