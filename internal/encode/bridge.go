package encode

import (
	"fmt"

	"lyra/internal/ir"
)

// BridgeFieldName returns the lyra_bridge header field carrying variable v
// of algorithm alg.
func BridgeFieldName(alg string, v *ir.Var) string {
	return fmt.Sprintf("%s_%s_%d", alg, v.Name, v.Ver)
}

// FieldBits is the width of bv's lyra_bridge field: its bit width, or 32
// when the width is unknown.
func (bv BridgeVar) FieldBits() int {
	if bv.Bits <= 0 {
		return 32
	}
	return bv.Bits
}

// BridgeIndex is a plan's bridge exports indexed once: the network-wide
// lyra_bridge header layout and, per variable, the switches exporting it.
// The backend declares headers and resolves imports from it, and switch
// fingerprints hash exactly what it yields, so the two cannot drift.
type BridgeIndex struct {
	// Layout lists the lyra_bridge fields: one per distinct field name, in
	// first-exporter order over the sorted switches, each carrying the
	// first exporter's BridgeVar (and so its width).
	Layout []BridgeVar
	// exporters maps a variable to its exports in sorted switch order.
	exporters map[*ir.Var][]bridgeExport
}

// bridgeExport is one switch's export of a bridge variable.
type bridgeExport struct {
	sw string
	bv BridgeVar
}

// BridgeIndex builds the plan's bridge index.
func (p *Plan) BridgeIndex() *BridgeIndex {
	x := &BridgeIndex{exporters: map[*ir.Var][]bridgeExport{}}
	seen := map[string]bool{}
	for _, sw := range sortedKeys(p.Bridges) {
		for _, bv := range p.Bridges[sw] {
			if name := BridgeFieldName(bv.Alg, bv.Var); !seen[name] {
				seen[name] = true
				x.Layout = append(x.Layout, bv)
			}
			x.exporters[bv.Var] = append(x.exporters[bv.Var], bridgeExport{sw: sw, bv: bv})
		}
	}
	return x
}

// Import resolves switch sw's read of v against the bridge: the export of
// the first other switch, in sorted order, that exports v. ok is false
// when no other switch exports v. A variable sw also defines locally is
// still imported — shard copies of a split table need the upstream hit
// signal and value at switch entry.
func (x *BridgeIndex) Import(sw string, v *ir.Var) (bv BridgeVar, ok bool) {
	for _, e := range x.exporters[v] {
		if e.sw != sw {
			return e.bv, true
		}
	}
	return BridgeVar{}, false
}
