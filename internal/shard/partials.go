package shard

// PartialCache is the one way finished shard partials are held and
// looked up, keyed by campaign fingerprint and plan range — never by
// shard index, which is plan-local. Every holder implements it: the
// in-memory MemPartials, the runstore journal (write-only; replayed into
// a MemPartials at startup), the artifact lake. Both methods are
// best-effort — implementations swallow transport and store errors (a
// miss is always safe), and GetPartial must only return a partial that
// was published for exactly (fp, start, end).
type PartialCache interface {
	GetPartial(fp string, start, end int) *Partial
	PutPartial(fp string, p *Partial)
}

// span is a plan range [start,end).
type span struct{ start, end int }

// MemPartials is the in-memory PartialCache: campaign fingerprint ->
// plan range -> partial, last put wins. It is a plain map — len counts
// campaigns, delete drops one — and not synchronized: each owner (the
// executor, the coordinator's registry) guards it with the lock it
// already holds.
type MemPartials map[string]map[span]*Partial

// GetPartial implements PartialCache.
func (m MemPartials) GetPartial(fp string, start, end int) *Partial {
	return m[fp][span{start, end}]
}

// PutPartial implements PartialCache.
func (m MemPartials) PutPartial(fp string, p *Partial) {
	c := m[fp]
	if c == nil {
		c = map[span]*Partial{}
		m[fp] = c
	}
	c[span{p.Start, p.End}] = p
}

// Tiers stacks caches in lookup order, fastest and most authoritative
// first: a get is the first hit in order, a put writes through to every
// tier. Tiers cannot fail by contract, so one that is down reads as a
// miss and never costs the others their put. Nil tiers are skipped.
type Tiers []PartialCache

// GetPartial implements PartialCache.
func (t Tiers) GetPartial(fp string, start, end int) *Partial {
	for _, c := range t {
		if c == nil {
			continue
		}
		if p := c.GetPartial(fp, start, end); p != nil {
			return p
		}
	}
	return nil
}

// PutPartial implements PartialCache.
func (t Tiers) PutPartial(fp string, p *Partial) {
	for _, c := range t {
		if c != nil {
			c.PutPartial(fp, p)
		}
	}
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
