package shard

// PartialCache is the read side every holder of finished shard partials
// answers, keyed by campaign fingerprint and plan range — never by shard
// index, which is plan-local: the in-memory MemPartials, the
// coordinator's registry (memory, then the artifact lake), the lake
// itself. A lookup is best-effort — implementations swallow transport and
// store errors (a miss is always safe) — and must only return a partial
// that was published for exactly (fp, start, end).
type PartialCache interface {
	GetPartial(fp string, start, end int) *Partial
}

// span is a plan range [start,end).
type span struct{ start, end int }

// MemPartials is the in-memory PartialCache: campaign fingerprint ->
// plan range -> partial, last put wins. It is a plain map — len counts
// campaigns, delete drops one — and not synchronized: an owner (the
// coordinator's registry) guards it with the lock it already holds.
type MemPartials map[string]map[span]*Partial

// GetPartial implements PartialCache.
func (m MemPartials) GetPartial(fp string, start, end int) *Partial {
	return m[fp][span{start, end}]
}

// PutPartial files p under its campaign and plan range.
func (m MemPartials) PutPartial(fp string, p *Partial) {
	c := m[fp]
	if c == nil {
		c = map[span]*Partial{}
		m[fp] = c
	}
	c[span{p.Start, p.End}] = p
}

// Adopt looks a planned shard up in a cache and returns the held result
// filed under this plan, or nil when the shard must be simulated. The
// shard index is plan-local, so a result filed under another plan's index
// is copied and re-indexed to the spec's (the integrity checksum excludes
// the index, so the stamp survives); a partial
// that does not cover the spec exactly or fails its checksum is a
// corrupt cache object and reads as a miss — caches accelerate, they
// never decide.
func Adopt(c PartialCache, sp Spec) *Partial {
	if c == nil {
		return nil
	}
	p := c.GetPartial(sp.Fingerprint, sp.Start, sp.End)
	if p == nil {
		return nil
	}
	if p.Index != sp.Index {
		adopted := *p
		adopted.Index = sp.Index
		p = &adopted
	}
	if !p.Covers(sp) || p.Verify() != nil {
		return nil
	}
	return p
}
