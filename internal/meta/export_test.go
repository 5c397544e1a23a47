package meta

import (
	"tracer/internal/formula"
	"tracer/internal/lang"
)

// EachLitFlag calls fn for every per-literal flag the cache holds: the atom,
// the literal's interned ID, whether its wp was recorded as the identity,
// and whether the entry table holds a DNF for it.
func (c *WPCache) EachLitFlag(fn func(a lang.Atom, lid uint32, identity, hasEntry bool)) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for a, aw := range c.m {
		dp := aw.flags.dir.Load()
		if dp == nil {
			continue
		}
		for bi := range *dp {
			if (*dp)[bi].Load() == nil {
				continue
			}
			for i := uint32(0); i < flagBlockSize; i++ {
				lid := uint32(bi)<<flagBlockBits | i
				filled, identity := aw.flag(lid)
				if !filled {
					continue
				}
				var hasEntry bool
				if b := aw.ents.load(int(lid >> entBlockBits)); b != nil {
					hasEntry = b[lid%entBlockSize].Load() != nil
				}
				fn(a, lid, identity, hasEntry)
			}
		}
	}
}

// LitFlag reports literal lid's flags under atom a.
func (c *WPCache) LitFlag(a lang.Atom, lid uint32) (filled, identity bool) {
	c.mu.RLock()
	aw := c.m[a]
	c.mu.RUnlock()
	if aw == nil {
		return false, false
	}
	return aw.flag(lid)
}

// WPLit is the per-literal lookup wpDNF makes for literal lid at atom a,
// filling the cache on a miss.
func WPLit[D comparable](c *Client[D], a lang.Atom, lid uint32) (d formula.DNF, identity bool) {
	return c.wpLitDNF(c.Cache.atom(a), a, lid)
}
