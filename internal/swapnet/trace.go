package swapnet

import (
	"github.com/ata-pattern/ataqc/internal/arch"
	"github.com/ata-pattern/ataqc/internal/obs"
)

// ATATraced is ATA wrapped in an "ata.region" span on tr (nil tr is
// exactly ATA): the span carries the region bounds up front and, once the
// pattern completes, the emitted step/cycle/gate counts plus the
// cache-lookup delta. The delta is read off the cache's global counters,
// so it is exact only when no other goroutine uses the cache concurrently —
// true for the materialisation and pure-ATA paths that call this.
func ATATraced(st *State, region arch.Region, emit EmitFunc, c *PatternCache, tr *obs.Trace, parent *obs.Span) error {
	if tr == nil {
		return ATA(st, region, emit, c)
	}
	sp := tr.StartSpan(parent, "ata.region", regionAttrs(region)...)
	before := c.Stats()
	var cnt Counter
	err := ATA(st, region, func(s Step) { cnt.Emit(s); emit(s) }, c)
	after := c.Stats()
	sp.SetAttrs(
		obs.Int("steps", cnt.Steps),
		obs.Int("cycles", cnt.Cycles),
		obs.Int("gates", cnt.Gates),
		obs.Int("fused", cnt.Fused),
		obs.Int("swaps", cnt.Swaps),
		obs.Int("cx", cnt.CX),
		obs.I64("cache_hits", after.Hits-before.Hits),
		obs.I64("cache_misses", after.Misses-before.Misses),
	)
	sp.End()
	return err
}

func regionAttrs(r arch.Region) []obs.Attr {
	if r.UsesPath {
		return []obs.Attr{obs.Bool("path", true), obs.Int("i0", r.I0), obs.Int("i1", r.I1)}
	}
	return []obs.Attr{
		obs.Int("u0", r.U0), obs.Int("u1", r.U1),
		obs.Int("p0", r.P0), obs.Int("p1", r.P1),
	}
}
