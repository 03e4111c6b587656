package encode

import (
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"strconv"

	"lyra/internal/asic"
	"lyra/internal/ir"
)

// fpCtx is the shared, plan-wide part of switch fingerprinting, computed
// once per Fingerprints call: the placement index inverted to per-switch
// form, the digested lyra_bridge layout, and each switch's bridge imports.
// Building it is O(plan); without it each SwitchFingerprint call rescans
// every placement of every algorithm, which made hashing a k-pod fat tree
// quadratic in the switch count (and the dominant cost of a large compile).
type fpCtx struct {
	// placedIDs maps switch -> algorithm -> sorted placed instruction IDs.
	placedIDs map[string]map[string][]int
	// algs is the sorted algorithm order placements render in.
	algs []string
	// layoutDigest is the hash of the lyra_bridge field list exactly as
	// the backend declares it. Bridging switches mix in the digest rather
	// than the list, so per-switch hashing cost stays independent of how
	// many variables bridge network-wide.
	layoutDigest string
	// imports maps switch -> variable -> the export its read resolves to.
	imports map[string]map[*ir.Var]BridgeVar
	// scratch is the reusable render buffer for sequential fingerprinting.
	scratch []byte
}

func (p *Plan) fingerprintCtx() *fpCtx {
	ctx := &fpCtx{
		placedIDs: map[string]map[string][]int{},
		algs:      sortedKeys(p.Placement),
		imports:   map[string]map[*ir.Var]BridgeVar{},
	}
	for _, alg := range ctx.algs {
		for id, hosts := range p.Placement[alg] {
			for _, h := range hosts {
				m := ctx.placedIDs[h]
				if m == nil {
					m = map[string][]int{}
					ctx.placedIDs[h] = m
				}
				m[alg] = append(m[alg], id)
			}
		}
	}
	for _, m := range ctx.placedIDs {
		for _, ids := range m {
			sort.Ints(ids)
		}
	}

	bx := p.BridgeIndex()
	var layout []byte
	for _, bv := range bx.Layout {
		layout = append(layout, BridgeFieldName(bv.Alg, bv.Var)...)
		layout = append(layout, ':')
		layout = strconv.AppendInt(layout, int64(bv.FieldBits()), 10)
		layout = append(layout, '\n')
	}
	sum := sha256.Sum256(layout)
	ctx.layoutDigest = "bridge-layout=" + hex.EncodeToString(sum[:]) + "\n"

	// Imports, resolved exactly as the backend resolves them: every read of
	// a variable some other switch exports.
	if len(bx.Layout) > 0 {
		for _, a := range p.Input.IR.Algorithms {
			placed := p.Placement[a.Name]
			if placed == nil {
				continue
			}
			for _, in := range a.Instrs {
				hosts := placed[in.ID]
				if len(hosts) == 0 {
					continue
				}
				for _, v := range in.Reads() {
					for _, h := range hosts {
						bv, ok := bx.Import(h, v)
						if !ok {
							continue
						}
						m := ctx.imports[h]
						if m == nil {
							m = map[*ir.Var]BridgeVar{}
							ctx.imports[h] = m
						}
						m[v] = bv
					}
				}
			}
		}
	}
	return ctx
}

// SwitchFingerprint content-hashes one switch's slice of the plan:
// everything that determines the artifact generated for it and the
// admission report verifying it — the chip model's resources, the placed
// instructions per algorithm, the concrete table allotments (including the
// switch's own extern shard geometry), its bridge exports and imports, and
// the lyra_bridge header layout (which shapes the parser and header
// declarations on every bridging switch). Two plans assigning a switch
// identical fingerprints generate byte-identical code for it, so
// incremental recompilation can skip reprogramming the device.
func (p *Plan) SwitchFingerprint(sw string) string {
	return p.switchFingerprint(p.fingerprintCtx(), sw)
}

// switchFingerprint renders one switch's content into the context's
// scratch buffer and hashes it. The rendering is hand-rolled appends, not
// fmt: this runs once per programmed switch per compile, and fmt's
// reflection overhead was a measurable slice of a datacenter-scale
// compile. Fingerprints are only ever compared to fingerprints computed by
// the same code in the same process, so the exact byte layout is free to
// change as long as it stays injective on the hashed facts.
func (p *Plan) switchFingerprint(ctx *fpCtx, sw string) string {
	b := ctx.scratch[:0]
	if s := p.Input.Net.Switch(sw); s != nil {
		b = appendModel(b, s.ASIC)
	}
	placed := ctx.placedIDs[sw]
	for _, alg := range ctx.algs {
		ids := placed[alg]
		if len(ids) == 0 {
			continue
		}
		b = append(b, "alg="...)
		b = append(b, alg...)
		b = append(b, " ids="...)
		for _, id := range ids {
			b = strconv.AppendInt(b, int64(id), 10)
			b = append(b, ',')
		}
		b = append(b, '\n')
	}
	for _, pt := range p.Tables[sw] {
		b = append(b, "table="...)
		b = append(b, pt.Name...)
		b = append(b, " entries="...)
		b = strconv.AppendInt(b, int64(pt.Entries), 10)
		b = append(b, " shard="...)
		b = strconv.AppendInt(b, int64(pt.ShardIndex), 10)
		b = append(b, '/')
		b = strconv.AppendInt(b, int64(pt.ShardCount), 10)
		b = append(b, '\n')
	}
	for _, bv := range p.Bridges[sw] {
		b = appendBridgeVar(b, "export=", bv)
	}
	imports := ctx.imports[sw]
	if len(imports) > 0 {
		in := make([]BridgeVar, 0, len(imports))
		for _, bv := range imports {
			in = append(in, bv)
		}
		sort.Slice(in, func(i, j int) bool {
			if vi, vj := in[i].Var.String(), in[j].Var.String(); vi != vj {
				return vi < vj
			}
			return in[i].Alg < in[j].Alg
		})
		for _, bv := range in {
			b = appendBridgeVar(b, "import=", bv)
		}
	}
	// The lyra_bridge layout: a switch that imports or exports anything
	// declares the whole header; switches with no bridge involvement are
	// not invalidated by layout changes.
	if len(imports) > 0 || len(p.Bridges[sw]) > 0 {
		b = append(b, ctx.layoutDigest...)
	}
	ctx.scratch = b
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// appendBridgeVar renders one bridge export or import: the field it
// travels in, its width, and whether it is a shard hit signal.
func appendBridgeVar(b []byte, kind string, bv BridgeVar) []byte {
	b = append(b, kind...)
	b = append(b, bv.Alg...)
	b = append(b, '.')
	b = append(b, bv.Var.String()...)
	b = append(b, " bits="...)
	b = strconv.AppendInt(b, int64(bv.Bits), 10)
	if bv.Hit {
		b = append(b, " hit"...)
	}
	return append(b, '\n')
}

// appendModel renders the chip model a switch is admitted against: its
// name and every resource budget admission consults. The name alone is not
// enough — asic.Scale names every degrade "X[degraded]" whatever its
// factors, and a reused artifact keeps the admission report of the budget
// it was last checked against.
func appendModel(b []byte, m *asic.Model) []byte {
	b = append(b, "model="...)
	b = append(b, m.Name...)
	for _, n := range []int64{
		int64(m.Lang), boolInt(m.Programmable),
		int64(m.Stages), int64(m.TablesPerStage),
		int64(m.SRAMBlocks), int64(m.SRAMBlockEntries), int64(m.SRAMBlockWidth),
		int64(m.TCAMBlocks), int64(m.TCAMBlockEntries), int64(m.TCAMBlockWidth),
		int64(m.PHV8), int64(m.PHV16), int64(m.PHV32),
		int64(m.ParserEntries), int64(m.AtomsPerStage),
		boolInt(m.WordPacking), boolInt(m.MultiLookup), boolInt(m.Recirculation),
		int64(m.MaxCompareBits),
		m.TotalEntryCapacity, int64(m.MaxLogicalTables), int64(m.MaxCodePath),
	} {
		b = append(b, ' ')
		b = strconv.AppendInt(b, n, 10)
	}
	return append(b, '\n')
}

func boolInt(v bool) int64 {
	if v {
		return 1
	}
	return 0
}

// Fingerprints hashes every switch hosting anything in the plan. The
// shared context is built once, so the whole map costs O(plan) instead of
// O(switches x placements).
func (p *Plan) Fingerprints() map[string]string {
	ctx := p.fingerprintCtx()
	out := make(map[string]string, len(ctx.placedIDs))
	for h := range ctx.placedIDs {
		out[h] = p.switchFingerprint(ctx, h)
	}
	return out
}
